package repro.perfbench

import java.nio.file.{Files, Path}
import scala.collection.mutable.ArrayBuffer
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.experiments.Runner
import repro.spark.{Distributed, SeriesFrames}

/** The end-to-end phases of one run, through the public API a user calls:
  * `Distributed.build`, `knnBatch` and `saveToDir`/`loadFromDir`. Times are
  * the driver's wall clock. Every answer goes through the [[Gate]].
  */
final class EndToEnd(spark: SparkSession, w: Workload, seed: Long, partitions: Int, trace: Trace,
                     queries: Array[Array[Float]], tmp: Path) {
  import EndToEnd._

  private val cfg = w.config(partitions)
  private val knobs = Runner.scaleKnobs(w.knobs, partitions)

  /** Untimed: one build of a quarter as many series of another seed, with
    * the HBuffer scaled alike so that it spills where the workload spills,
    * then a query batch and [[WarmReloads]] saves and loads of it.
    */
  def warmUp(): Unit = trace.span("bench.warmup") {
    val warmSeed = seed + WarmSeedOffset
    val warmQueries = w.queryPool(warmSeed)
    val series = Workload.Series / WarmShrink
    val b = Distributed.build(SeriesFrames.dataset(spark, w.kind, series, w.length, warmSeed), "hercules",
      w.config(partitions, series), partitions)
    Distributed.knnBatch(b, warmQueries, knobs)
    for (r <- 1 to WarmReloads) {
      val dir = tmp.resolve(s"warm-index-$r")
      Distributed.saveToDir(b, dir.toString)
      Distributed.loadFromDir(spark, dir.toString).rdd.unpersist(blocking = true)
      deleteTree(dir)
    }
    b.rdd.unpersist(blocking = true)
  }

  /** `setup_s`: timed builds on the cached input DataFrame; keeps the last. */
  def builds(df: DataFrame): Builds = {
    val seconds = ArrayBuffer.empty[Double]
    val partitionMs = ArrayBuffer.empty[Array[Double]]
    var built: Distributed.BuiltIndex = null
    for (_ <- 1 to TimedBuilds) {
      if (built != null) built.rdd.unpersist(blocking = true)
      val t0 = System.nanoTime()
      built = trace.span("spark.build")(Distributed.build(df, "hercules", cfg, partitions))
      seconds += (System.nanoTime() - t0) / 1e9
      partitionMs += built.rdd.map(_.buildMs).collect()
    }
    Builds(seconds.toSeq, partitionMs.toSeq, built)
  }

  /** `query_p50_ms`/`query_p95_ms`: a closed loop of single-query calls, one
    * client, for `budgetNs` and at least [[MinSingleSamples]] calls. In the
    * traced run each query is sent twice in a row, once with tracing on and
    * once off, in alternating order; the pairs give the tracing overhead.
    */
  def singles(built: Distributed.BuiltIndex, gate: Gate, budgetNs: Long): Singles = {
    val pairs = trace.enabled
    val ms = ArrayBuffer.empty[Double]
    val traced = ArrayBuffer.empty[Boolean]
    val outsideTaskMs = ArrayBuffer.empty[Double]
    // Untimed: single-query latency keeps falling for the first hundred or
    // so calls on a freshly built index.
    (0 until WarmSingleQueries).foreach(i => Distributed.knnBatch(built, Array(queries(i % queries.length)), knobs))
    val start = System.nanoTime()
    while (System.nanoTime() - start < budgetNs || ms.size < MinSingleSamples) {
      val i = ms.size
      val qi = (if (pairs) i / 2 else i) % queries.length
      trace.enabled = pairs && i % 2 == (i / 2) % 2
      val qid = trace.newRequest()
      val t0 = System.nanoTime()
      val res =
        try Some(trace.span("spark.knnBatch.single", qid)(Distributed.knnBatch(built, Array(queries(qi)), knobs)))
        catch { case e: Exception => gate.threw(1, "single knnBatch", e); None }
      val callMs = (System.nanoTime() - t0) / 1e6
      traced += trace.enabled
      trace.enabled = pairs
      ms += callMs
      res.foreach { r =>
        outsideTaskMs += callMs - r.perQueryMs(0)
        trace.span("bench.check")(gate.check(qi, r.neighbors(0), "single knnBatch"))
      }
    }
    Singles(ms.toSeq, traced.toSeq, outsideTaskMs.toSeq)
  }

  /** `batch_qps` and `data_accessed_p50_pct`: each call sends the next of
    * [[BatchSlices]] slices of the pool, so the loop makes enough calls for
    * a steady median and covers the whole pool.
    */
  def batches(built: Distributed.BuiltIndex, gate: Gate, budgetNs: Long): Batches = {
    val slices = queries.indices.grouped(math.max(1, queries.length / BatchSlices)).toIndexedSeq
    val calls = ArrayBuffer.empty[BatchCall]
    val accessFraction = Array.fill(queries.length)(Double.NaN)
    val start = System.nanoTime()
    while (System.nanoTime() - start < budgetNs || calls.size < slices.size) {
      val slice = slices(calls.size % slices.size)
      val qid = trace.newRequest()
      val t0 = System.nanoTime()
      try {
        val r = trace.span("spark.knnBatch.batch", qid)(Distributed.knnBatch(built, slice.map(queries).toArray, knobs))
        calls += BatchCall(slice.size, (System.nanoTime() - t0) / 1e6, r.wallMs, r.perQueryMs.sum)
        trace.span("bench.check")(slice.indices.foreach { j =>
          accessFraction(slice(j)) = r.perQueryStats(j).accessFraction(r.totalSeries)
          gate.check(slice(j), r.neighbors(j), "batch knnBatch")
        })
      } catch {
        case e: Exception =>
          gate.threw(slice.size, "batch knnBatch", e)
          calls += BatchCall(slice.size, Double.PositiveInfinity, Double.NaN, Double.NaN)
      }
    }
    Batches(calls.toSeq, accessFraction.toSeq.map(_ * 100))
  }

  /** `reload_s` and `index_bytes_per_input_byte`: timed save + load round
    * trips; each reloaded index answers a sample of the pool.
    */
  def reloads(built: Distributed.BuiltIndex, gate: Gate): Reloads = {
    val saveMs = ArrayBuffer.empty[Double]
    val loadMs = ArrayBuffer.empty[Double]
    var bytes = 0L
    val sample = queries.indices.take(ReloadCheckQueries)
    for (r <- 1 to ReloadRounds) {
      val dir = tmp.resolve(s"index-$r")
      val t0 = System.nanoTime()
      trace.span("spark.persist.save")(Distributed.saveToDir(built, dir.toString))
      val t1 = System.nanoTime()
      val loaded = trace.span("spark.persist.load")(Distributed.loadFromDir(spark, dir.toString))
      val t2 = System.nanoTime()
      saveMs += (t1 - t0) / 1e6
      loadMs += (t2 - t1) / 1e6
      bytes = dirBytes(dir)
      try {
        val res = trace.span("spark.knnBatch.reloaded", trace.newRequest())(
          Distributed.knnBatch(loaded, sample.map(queries).toArray, knobs))
        trace.span("bench.check")(sample.indices.foreach(j => gate.check(sample(j), res.neighbors(j), "reloaded knnBatch")))
      } catch { case e: Exception => gate.threw(sample.size, "reloaded knnBatch", e) }
      loaded.rdd.unpersist(blocking = true)
      deleteTree(dir)
    }
    Reloads(saveMs.toSeq, loadMs.toSeq, bytes)
  }
}

object EndToEnd {
  /** Timed `Distributed.build` calls; `setup_s` is their median. */
  val TimedBuilds = 3
  /** Timed save + load round trips; `reload_s` is their median. */
  val ReloadRounds = 9
  /** Queries of the pool re-checked on each reloaded index. */
  val ReloadCheckQueries = 32
  /** The single-query loop runs until it has at least this many samples,
    * so that p95 has 15 samples beyond it.
    */
  val MinSingleSamples = 300
  /** The batch loop sends the pool in this many slices, one per call. */
  val BatchSlices = 2
  /** The warm-up uses a quarter as many series, of another seed. */
  val WarmSeedOffset = 1000003L
  val WarmShrink = 4
  /** Save and load rounds in the warm-up: the first few are slower. */
  val WarmReloads = 3
  /** Untimed single-query calls before the timed loop. */
  val WarmSingleQueries = 150

  final case class Builds(seconds: Seq[Double], partitionMs: Seq[Array[Double]], index: Distributed.BuiltIndex)

  /** Single-query latencies, which calls were traced, and each call's time
    * outside its in-task query time.
    */
  final case class Singles(ms: Seq[Double], traced: Seq[Boolean], outsideTaskMs: Seq[Double]) {
    /** Median of (traced − untraced) over the consecutive pairs. */
    def tracingOverheadMs: Double = Stat.median(ms.indices.grouped(2).filter(_.size == 2).map { p =>
      val (a, b) = (p(0), p(1))
      if (traced(a)) ms(a) - ms(b) else ms(b) - ms(a)
    }.toSeq)
    def untracedP50: Double = Stat.median(ms.indices.filterNot(traced).map(ms))
  }

  final case class BatchCall(queries: Int, callMs: Double, jobMs: Double, taskSumMs: Double) {
    def qps: Double = queries / (callMs / 1000)
  }

  /** Batch calls, and the share of data each pool query accessed, in %. */
  final case class Batches(calls: Seq[BatchCall], accessPct: Seq[Double]) {
    def accessMeanPct: Double = Stat.mean(accessPct)
  }

  final case class Reloads(saveMs: Seq[Double], loadMs: Seq[Double], bytes: Long) {
    def seconds: Seq[Double] = saveMs.indices.map(i => (saveMs(i) + loadMs(i)) / 1000)
  }

  private def dirBytes(dir: Path): Long = {
    val s = Files.list(dir)
    try s.filter(Files.isRegularFile(_)).mapToLong(Files.size(_)).sum()
    finally s.close()
  }

  private def deleteTree(dir: Path): Unit =
    if (Files.exists(dir)) {
      val s = Files.walk(dir)
      try s.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(p => Files.delete(p))
      finally s.close()
    }
}
