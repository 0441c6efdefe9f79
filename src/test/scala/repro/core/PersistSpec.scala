package repro.core

import java.io.IOException
import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.spark.LocalIndex

/** Index save/load: the on-disk round trip every saved partition goes
  * through, and the framing that makes a damaged file fail loudly.
  */
class PersistSpec extends AnyFunSuite {

  /** Save `idx` as a partition file, load it back and return the reloaded tree. */
  private def roundTrip(idx: HerculesIndex): HerculesIndex = {
    val f = Files.createTempFile("hercules-idx", ".idx")
    try {
      LocalIndex(idx, 0.0).save(f)
      LocalIndex.load(f).index.asInstanceOf[HerculesIndex]
    } finally Files.deleteIfExists(f)
  }

  test("saved index answers queries identically after reload") {
    val (ids, data) = TestUtil.dataset(400, 32, 21)
    val idx = HerculesIndex.build(ids, data, TestUtil.cfg(32, 16, 2))
    val reloaded = roundTrip(idx)
    assert(reloaded.nSeries == idx.nSeries)
    assert(reloaded.totalLeaves == idx.totalLeaves)
    val queries = SeriesGen.queries("walk", "5%", 5, 400, 32, 21)
    queries.foreach { q =>
      val a = idx.knn(q, QueryKnobs(k = 5, lmax = 4, threads = 2))
      val b = reloaded.knn(q, QueryKnobs(k = 5, lmax = 4, threads = 2))
      assert(a.map(x => (x.id, x.dist2)).toSeq == b.map(x => (x.id, x.dist2)).toSeq)
      TestUtil.assertExact(ids, data, q, 5, b, "reloaded")
    }
  }

  test("reloaded tree preserves structure and positions") {
    val (ids, data) = TestUtil.dataset(200, 32, 22)
    val idx = HerculesIndex.build(ids, data, TestUtil.cfg(32, 16))
    val r = roundTrip(idx)
    assert(r.leaves.map(_.filePos).toSeq == idx.leaves.map(_.filePos).toSeq)
    assert(r.leaves.map(_.leafSize).toSeq == idx.leaves.map(_.leafSize).toSeq)
    assert(r.ids.toSeq == idx.ids.toSeq)
    assert(r.lsd.toSeq == idx.lsd.toSeq)
  }

  /** Save a small index, damage the file with `damage`, and return what
    * loading it throws; the message must name the file.
    */
  private def loadDamaged(damage: Array[Byte] => Array[Byte]): IOException = {
    val (ids, data) = TestUtil.dataset(200, 32, 23)
    val f = Files.createTempFile("hercules-idx", ".idx")
    try {
      LocalIndex(HerculesIndex.build(ids, data, TestUtil.cfg(32, 16)), 0.0).save(f)
      Files.write(f, damage(Files.readAllBytes(f)))
      val e = intercept[IOException](LocalIndex.load(f))
      assert(e.getMessage.contains(f.toString), e.getMessage)
      e
    } finally Files.deleteIfExists(f)
  }

  test("the file header describes the saved index") {
    val (ids, data) = TestUtil.dataset(50, 32, 24)
    val f = Files.createTempFile("hercules-idx", ".idx")
    try {
      LocalIndex(HerculesIndex.build(ids, data, TestUtil.cfg(32, 16)), 0.0).save(f)
      val h = LocalIndex.readHeader(f)
      assert((h.indexClass, h.len, h.nSeries) == (classOf[HerculesIndex].getName, 32, 50))
      assert(LocalIndex.load(f).index.nSeries == 50)
    } finally Files.deleteIfExists(f)
  }

  test("a truncated index file fails loading loudly") {
    val e = loadDamaged(b => b.take(b.length / 2))
    assert(e.getMessage.contains("truncated"), e.getMessage)
  }

  test("a flipped payload byte fails loading loudly") {
    val e = loadDamaged { b => b(b.length / 2) = (b(b.length / 2) ^ 0x10).toByte; b }
    assert(e.getMessage.contains("checksum"), e.getMessage)
  }

  test("a file that is not an index fails loading loudly") {
    val e = loadDamaged { b => b(0) = 0; b }
    assert(e.getMessage.contains("not an index file"), e.getMessage)
  }
}
