package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** The parallel build protocol: all modes index the same multiset of series
  * and answer k-NN exactly, with and without forced HBuffer flushes.
  */
class BuilderSpec extends AnyFunSuite {

  /** Seconds a build may take, so a deadlocked worker protocol fails one test. */
  private val BuildLimit = 30

  private def checkBuild(mode: BuildMode, cfg: IndexConfig, n: Int, seed: Long): Unit = {
    val (ids, data) = TestUtil.dataset(n, cfg.seriesLength, seed)
    val idx = TestUtil.withinSeconds(BuildLimit)(HerculesIndex.build(ids, data, cfg, mode))
    assert(idx.nSeries == n, s"indexed ${idx.nSeries} of $n")
    assert(idx.ids.sorted.toSeq == ids.sorted.toSeq, "id multiset changed")
    // exactness over a few queries
    val queries = SeriesGen.queries("walk", "5%", 3, n, cfg.seriesLength, seed)
    queries.zipWithIndex.foreach { case (q, qi) =>
      val res = idx.knn(q, QueryKnobs(k = 3, lmax = 4, threads = 2))
      TestUtil.assertExact(ids, data, q, 3, res, s"mode=$mode q$qi")
    }
  }

  for (threads <- Seq(2, 4); seed <- 1 to 2)
    test(s"Hercules concurrent build is exact (threads=$threads seed=$seed)") {
      checkBuild(BuildMode.Hercules, TestUtil.cfg(32, 16, threads), 500, seed)
    }

  for (threads <- Seq(2, 4); seed <- 1 to 2)
    test(s"PathLocked (DSTree*P) build is exact (threads=$threads seed=$seed)") {
      checkBuild(BuildMode.PathLocked, TestUtil.cfg(32, 16, threads), 500, seed)
    }

  for (seed <- 1 to 2)
    test(s"Sequential (DSTree*) build is exact (seed=$seed)") {
      checkBuild(BuildMode.Sequential, TestUtil.cfg(32, 16), 500, seed)
    }

  for (mode <- Seq[BuildMode](BuildMode.Hercules, BuildMode.PathLocked))
    test(s"forced flush/spill path stays exact ($mode)") {
      // HBuffer of 96 slots across 3 workers with chunks of 24 — many flushes.
      val cfg = TestUtil.cfg(32, 8, 3).copy(dbSize = 24, hbufferSlots = 96, flushThreshold = 1)
      checkBuild(mode, cfg, 600, 99)
    }

  test("forced flush in sequential mode stays exact") {
    val cfg = TestUtil.cfg(32, 8).copy(dbSize = 16, hbufferSlots = 32, flushThreshold = 1)
    checkBuild(BuildMode.Sequential, cfg, 400, 17)
  }

  test("empty dataset builds an empty index") {
    val idx = HerculesIndex.build(Array.empty, Array.empty, TestUtil.cfg(16))
    assert(idx.nSeries == 0)
    val q = SeriesGen.dataset("walk", 1, 16, 5)(0)
    assert(idx.knn(q, QueryKnobs(k = 3)).isEmpty)
  }

  test("single-series dataset") {
    val (ids, data) = TestUtil.dataset(1, 16, 3)
    val idx = HerculesIndex.build(ids, data, TestUtil.cfg(16))
    val res = idx.knn(data(0), QueryKnobs(k = 1))
    assert(res.length == 1 && res(0).id == 0L && res(0).dist2 == 0.0)
  }

  test("dataset smaller than one chunk") {
    checkBuild(BuildMode.Hercules, TestUtil.cfg(32, 16, 4).copy(dbSize = 1024), 50, 21)
  }

  test("parallel and sequential builds index the same id multiset") {
    val cfg = TestUtil.cfg(32, 16, 4)
    val (ids, data) = TestUtil.dataset(300, 32, 5)
    val a = TestUtil.withinSeconds(BuildLimit)(HerculesIndex.build(ids, data, cfg, BuildMode.Hercules))
    val b = HerculesIndex.build(ids, data, cfg, BuildMode.Sequential)
    assert(a.ids.sorted.toSeq == b.ids.sorted.toSeq)
    assert(a.nSeries == b.nSeries)
  }
}
