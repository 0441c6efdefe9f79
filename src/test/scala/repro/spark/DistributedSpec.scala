package repro.spark

import java.nio.file.Files
import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec, TestUtil}
import repro.core.{HerculesIndex, IndexConfig, QueryKnobs, SeriesGen}
import repro.experiments.Runner

/** Distributed per-partition indexing: every method's Spark pipeline must
  * return exactly the DuckDB brute-force k-NN (via the oracle), partition
  * counts must not change answers, save/load must round-trip, and bad series
  * or queries must fail the job without spoiling the index.
  */
class DistributedSpec extends SparkSpec {

  private val n = 300
  private val len = 24
  private val k = 3
  private val seed = 77L
  private val cfg = IndexConfig(seriesLength = len, leafCapacity = 16, dbSize = 64)
  private val knobs = QueryKnobs(k = k, lmax = 3, threads = 1)

  private lazy val df: DataFrame =
    SeriesFrames.dataset(spark, "walk", n, len, seed).cache()

  private lazy val queries = SeriesGen.queries("walk", "5%", 3, n, len, seed)

  private lazy val queryDF: DataFrame = {
    import spark.implicits._
    queries.zipWithIndex.flatMap { case (q, qi) =>
      q.zipWithIndex.map { case (v, p) => (qi.toLong, p, v.toDouble) }
    }.toSeq.toDF("qid", "pos", "val")
  }

  private def oracleSql(kk: Int): String =
    s"""WITH dists AS (
       |  SELECT q.qid AS qid, d.id AS sid,
       |         sum(pow(CAST(d.val AS DOUBLE) - CAST(q.val AS DOUBLE), 2)) AS d2
       |  FROM data d JOIN query q ON d.pos = q.pos
       |  GROUP BY q.qid, d.id
       |)
       |SELECT qid, sid, sqrt(d2) AS dist
       |FROM dists
       |QUALIFY row_number() OVER (PARTITION BY qid ORDER BY d2, sid) <= $kk
       |""".stripMargin

  for (method <- LocalIndex.Methods)
    test(s"$method distributed kNN matches the DuckDB oracle") {
      val built = Distributed.build(df, method, cfg, Runner.partitionsFor(method, spark))
      try {
        val res = Distributed.knnBatch(built, queries, knobs)
        val out = Distributed.resultsToDF(spark, res)
        Oracle.assertEquivalent(out, oracleSql(k),
          "data" -> SeriesFrames.explode(df), "query" -> queryDF)
      } finally built.unpersist()
    }

  test("answers are identical for 1, 2 and 5 partitions") {
    val refs = Seq(1, 2, 5).map { p =>
      val built = Distributed.build(df, "hercules", cfg, p)
      try Distributed.knnBatch(built, queries, knobs).neighbors
      finally built.unpersist()
    }
    refs.tail.foreach { r =>
      refs.head.zip(r).foreach { case (a, b) =>
        assert(a.map(x => (x.id, x.dist2)).toSeq == b.map(x => (x.id, x.dist2)).toSeq)
      }
    }
  }

  test("knnBatch reports timing and access stats") {
    val built = Distributed.build(df, "hercules", cfg, 2)
    try {
      val res = Distributed.knnBatch(built, queries, knobs)
      assert(res.totalSeries == n)
      assert(res.perQueryMs.length == queries.length)
      assert(res.avgAccessFraction > 0.0 && res.avgAccessFraction <= 1.0)
    } finally built.unpersist()
  }

  test("save/load round-trips the per-partition indexes") {
    val dir = Files.createTempDirectory("hercules-dist").toString
    val built = Distributed.build(df, "hercules", cfg, 3)
    try {
      Distributed.saveToDir(built, dir)
      val loaded = Distributed.loadFromDir(spark, dir)
      try {
        assert(loaded.partitions == 3)
        assert(loaded.totalSeries == n)
        val (ids, data) = TestUtil.dataset(n, len, seed)
        val a = Distributed.knnBatch(built, queries, knobs).neighbors
        val b = Distributed.knnBatch(loaded, queries, knobs).neighbors
        a.zip(b).zip(queries).foreach { case ((x, y), q) =>
          assert(x.map(v => (v.id, v.dist2)).toSeq == y.map(v => (v.id, v.dist2)).toSeq)
          TestUtil.assertExact(ids, data, q, k, y, "reloaded")
        }
        def trees(b: Distributed.BuiltIndex) = b.rdd.collect().map(_.index.asInstanceOf[HerculesIndex])
        trees(built).zip(trees(loaded)).foreach { case (x, y) =>
          assert(y.totalLeaves == x.totalLeaves)
          assert(y.leaves.map(_.filePos) == x.leaves.map(_.filePos))
          assert(y.leaves.map(_.leafSize) == x.leaves.map(_.leafSize))
          assert(y.ids.toSeq == x.ids.toSeq)
          assert(y.lsd.toSeq == x.lsd.toSeq)
        }
      } finally loaded.unpersist()
    } finally built.unpersist()
  }

  test("saveToDir refuses a directory that already holds index files") {
    val dir = Files.createTempDirectory("hercules-dist").toString
    val first = Distributed.build(df, "hercules", cfg, 3)
    val second = Distributed.build(df, "hercules", cfg, 2)
    try {
      Distributed.saveToDir(first, dir)
      val e = intercept[IllegalArgumentException](Distributed.saveToDir(second, dir))
      assert(e.getMessage.contains(dir), e.getMessage)
      assert(e.getMessage.contains("part-0.idx, part-1.idx, part-2.idx"), e.getMessage)
      val loaded = Distributed.loadFromDir(spark, dir)
      try assert(loaded.partitions == 3 && loaded.totalSeries == n)
      finally loaded.unpersist()
    } finally { first.unpersist(); second.unpersist() }
  }

  test("loadFromDir refuses a directory mixing index classes") {
    val dir = Files.createTempDirectory("hercules-dist")
    val (ids, data) = TestUtil.dataset(40, len, seed)
    LocalIndex.build("hercules", ids, data, cfg).save(dir.resolve("part-0.idx"))
    LocalIndex.build("pscan", ids, data, cfg).save(dir.resolve("part-1.idx"))
    val e = intercept[java.io.IOException](Distributed.loadFromDir(spark, dir.toString))
    Seq(dir.toString, "HerculesIndex", "Pscan", "part-0.idx", "part-1.idx").foreach { part =>
      assert(e.getMessage.contains(part), e.getMessage)
    }
  }

  private def seriesDF(rows: Seq[(Long, Array[Float])]): DataFrame = {
    import spark.implicits._
    rows.toDF("id", "series")
  }

  for (method <- LocalIndex.Methods) {
    test(s"$method knnBatch rejects bad queries and the index still answers exactly") {
      val built = Distributed.build(df, method, cfg, Runner.partitionsFor(method, spark))
      try {
        val nan = queries(1).clone()
        nan(4) = Float.NaN
        val inf = queries(1).clone()
        inf(0) = Float.NegativeInfinity
        TestUtil.assertRejected("query has 20 points", s"expected $len")(
          Distributed.knnBatch(built, Array(queries(0), queries(1).take(20)), knobs))
        TestUtil.assertRejected("query has NaN at point 4", s"expected $len finite points")(
          Distributed.knnBatch(built, Array(queries(0), nan), knobs))
        TestUtil.assertRejected("query has -Infinity at point 0", s"expected $len finite points")(
          Distributed.knnBatch(built, Array(inf), knobs))
        val (ids, data) = TestUtil.dataset(n, len, seed)
        Distributed.knnBatch(built, queries, knobs).neighbors.zip(queries).foreach { case (res, q) =>
          TestUtil.assertExact(ids, data, q, k, res, s"$method after a failed batch")
        }
      } finally built.unpersist()
    }

    test(s"$method build rejects a series of the wrong length") {
      val rows = SeriesGen.dataset("walk", 40, len, seed).zipWithIndex.map { case (s, i) =>
        (i.toLong, if (i == 17) s.take(len - 1) else s)
      }
      TestUtil.assertRejected("(id 17) has 23 points", s"expected $len")(
        Distributed.build(seriesDF(rows), method, cfg, 2).unpersist())
    }

    test(s"$method build rejects a series with a NaN point") {
      val rows = SeriesGen.dataset("walk", 40, len, seed).zipWithIndex.map { case (s, i) =>
        if (i == 23) s(6) = Float.NaN
        (i.toLong, s)
      }
      TestUtil.assertRejected("(id 23) has NaN at point 6", s"expected $len finite points")(
        Distributed.build(seriesDF(rows), method, cfg, 2).unpersist())
    }
  }

  test("ood queries against a larger k also match the oracle (hercules)") {
    val oodQ = SeriesGen.queries("walk", "ood", 2, n, len, seed)
    val oodQDF = {
      import spark.implicits._
      oodQ.zipWithIndex.flatMap { case (q, qi) =>
        q.zipWithIndex.map { case (v, p) => (qi.toLong, p, v.toDouble) }
      }.toSeq.toDF("qid", "pos", "val")
    }
    val built = Distributed.build(df, "hercules", cfg, 4)
    try {
      val res = Distributed.knnBatch(built, oodQ, knobs.copy(k = 10))
      val out = Distributed.resultsToDF(spark, res)
      Oracle.assertEquivalent(out, oracleSql(10),
        "data" -> SeriesFrames.explode(df), "query" -> oodQDF)
    } finally built.unpersist()
  }
}
