package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** Pins the exact index that single-thread builds produce, one digest per
  * dataset kind. A build change that alters any split, leaf or LRDFile byte
  * must update these values on purpose.
  */
class TreeDigestSpec extends AnyFunSuite {

  private val pinned = Map(
    "walk" -> "03de73b59f10699369a6341eb7fd6561eb15a7a4fe18ec04076c13ca49288834",
    "sald" -> "89b6027bf3609fbf53d844e7764fb49b542ca1ceef256821cedd776b8b707713",
    "seismic" -> "5be54ff4362bf15145898902de8f16facb7f42614b7e5034f7d9ed8678e975b4",
    "deep" -> "e67fc9683707c96a79bb27dec45fa7a1d18888a708fac3bc782a96bdcfe882d3",
  )

  private def digest(kind: String, cfg: IndexConfig): String = {
    val (ids, data) = TestUtil.dataset(1500, 64, 11, kind)
    TestUtil.treeDigest(HerculesIndex.build(ids, data, cfg))
  }

  for (kind <- SeriesGen.Kinds) {
    test(s"single-thread $kind build matches its pinned digest") {
      assert(digest(kind, TestUtil.cfg(64, 24)) == pinned(kind))
    }

    test(s"single-thread $kind build that spills matches the same digest") {
      // Spill files keep each leaf's series in insertion order, so flushing
      // must not change a single split or LRDFile position.
      val cfg = TestUtil.cfg(64, 24).copy(dbSize = 16, hbufferSlots = 100, flushThreshold = 1)
      assert(digest(kind, cfg) == pinned(kind))
    }
  }
}
