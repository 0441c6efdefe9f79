package repro.perfbench

import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import repro.core.SeriesGen
import repro.perfbench.EndToEnd.{TimedBuilds, WarmSeedOffset, WarmShrink}
import repro.spark.SeriesFrames

/** The repo benchmark: one workload, one seed, one run.
  *
  * The end-to-end metrics come from the phases of [[EndToEnd]], with tracing
  * off. The traced run (`--trace 1`) repeats those phases with spans on and
  * adds the per-layer measurements of [[Layers]]. Every answer is checked
  * against `BruteForce.knn`; a wrong answer makes the run exit with code 1.
  */
object Main {

  final case class Opts(workload: Workload, seed: Long, seconds: Int, trace: Boolean,
                        out: Path, tmp: Path, gitSha: String, sourceSha: String)

  final case class Metric(name: String, value: Double, unit: String)

  /** Share of `--seconds` given to the single-query loop; the batch loop
    * gets the rest.
    */
  val SingleShare = 0.6

  def main(args: Array[String]): Unit = sys.exit(run(parse(args)))

  private def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(Workload.named(need("workload")), need("seed").toLong, need("seconds").toInt,
      need("trace") == "1", Paths.get(need("out")), Paths.get(need("tmp")),
      m.getOrElse("git-sha", "unknown"), m.getOrElse("source-sha", "unknown"))
  }

  /** Progress line on standard error, in seconds since the JVM started. */
  private def phase(name: String): Unit = {
    val up = System.currentTimeMillis() - java.lang.management.ManagementFactory.getRuntimeMXBean.getStartTime
    System.err.println(f"# perfbench ${up / 1e3}%.1f s: $name")
  }

  /** Driver-side inputs of one seed, made before Spark starts. The
    * BruteForce reference is computed in the background while Spark starts
    * and warms up, and is joined before the first timer starts.
    */
  final class Inputs(w: Workload, seed: Long, threads: Int) {
    val ids: Array[Long] = Array.tabulate(Workload.Series)(_.toLong)
    val data: Array[Array[Float]] = java.util.stream.IntStream.range(0, Workload.Series).parallel()
      .mapToObj[Array[Float]](i => SeriesGen.seriesForId(w.kind, i.toLong, w.length, seed))
      .toArray(m => new Array[Array[Float]](m))
    val queries: Array[Array[Float]] = w.queryPool(seed)
    val reference = Gate.reference(ids, data, queries, w.k, threads)
  }

  def run(o: Opts): Int = {
    val partitions = math.min(Runtime.getRuntime.availableProcessors, 4)
    val master = s"local[$partitions]"
    val inputs = new Inputs(o.workload, o.seed, math.max(1, partitions - 1))
    val spark = SparkSession.builder()
      .master(master)
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", o.tmp.resolve("spark").toString)
      .config("spark.sql.shuffle.partitions", partitions.toString)
      .config("spark.default.parallelism", partitions.toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    phase("Spark started")
    try measure(spark, o, inputs, partitions, master)
    finally spark.stop()
  }

  private def measure(spark: SparkSession, o: Opts, inputs: Inputs, partitions: Int, master: String): Int = {
    val w = o.workload
    val n = Workload.Series
    val queries = inputs.queries
    val trace = new Trace(o.trace)
    val env = Seq(
      "git_sha" -> o.gitSha, "source_sha256" -> o.sourceSha,
      "nproc" -> Runtime.getRuntime.availableProcessors, "spark_master" -> master,
      "partitions" -> partitions,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "seed" -> o.seed, "seconds" -> o.seconds, "trace" -> o.trace,
      "setup_mode" -> (s"warm: one untimed Distributed.build of ${n / WarmShrink} series of seed " +
        s"${o.seed + WarmSeedOffset} first; setup_s is the median of $TimedBuilds timed builds"),
    )
    println("# perfbench " + Json.render(Seq("workload" -> w.name) ++ env ++ Seq("params" -> w.params(partitions))))

    // The input DataFrame is cached and materialized before any timer starts.
    val df = trace.span("bench.inputs") {
      val df = SeriesFrames.dataset(spark, w.kind, n, w.length, o.seed).cache()
      df.count()
      df
    }
    phase("input DataFrame cached")
    val e2e = new EndToEnd(spark, w, o.seed, partitions, trace, queries, o.tmp)
    e2e.warmUp()
    phase("warm-up done")
    val gate = trace.span("bench.reference")(new Gate(inputs.reference.join()))
    phase("reference joined")
    val builds = e2e.builds(df)
    val built = builds.index
    phase("builds done")
    val singles = e2e.singles(built, gate, (o.seconds * SingleShare * 1e9).toLong)
    phase("single loop done")
    val batches = e2e.batches(built, gate, (o.seconds * (1 - SingleShare) * 1e9).toLong)
    phase("batch loop done")
    val reloads = e2e.reloads(built, gate)
    phase("reloads done")
    built.rdd.unpersist(blocking = true)
    df.unpersist(blocking = true)

    val batchQps = batches.calls.map(_.qps)
    // Printed on every run, but not among the gated end-to-end metrics: the
    // p95 of a whole run rises by about 40% while the host steals CPU.
    val p95 = Metric("query_p95_ms", Stat.percentile(singles.ms, 95), "ms")
    val endToEnd = Seq(
      Metric("setup_s", Stat.median(builds.seconds), "s"),
      Metric("query_p50_ms", Stat.median(singles.ms), "ms"),
      Metric("batch_qps", Stat.median(batchQps), "queries/s"),
      // The median, not the mean: on walk-1pct the top 1% of queries make
      // over a quarter of the mean, which then varies by ±15% between seeds.
      Metric("data_accessed_p50_pct", Stat.median(batches.accessPct), "%"),
      Metric("index_bytes_per_input_byte", reloads.bytes.toDouble / (n.toLong * w.length * 4), "ratio"),
      Metric("reload_s", Stat.median(reloads.seconds), "s"),
    )
    val notes = Map(
      "setup_s" -> s"median of ${builds.seconds.size} builds",
      "query_p50_ms" -> s"${singles.ms.size} samples",
      "query_p95_ms" -> s"${singles.ms.size} samples, ${Stat.beyond(singles.ms.size, 95)} beyond p95",
      "batch_qps" -> s"median of ${batchQps.size} calls of ${batches.calls.head.queries} queries",
      "reload_s" -> s"median of ${reloads.seconds.size} save+load round trips",
    )

    val perLayer: Seq[Metric] =
      if (!o.trace) Nil
      else {
        val calls = batches.calls
        val sparkLayer = Seq(
          Metric("spark.knnBatch.call_ms", Stat.median(calls.map(_.callMs)), "ms"),
          Metric("spark.knnBatch.job_ms", Stat.median(calls.map(_.jobMs)), "ms"),
          Metric("spark.knnBatch.driver_ms", Stat.median(calls.map(c => c.callMs - c.jobMs)), "ms"),
          Metric("spark.knnBatch.task_sum_ms", Stat.median(calls.map(_.taskSumMs)), "ms"),
          Metric("spark.single.p95_ms", p95.value, "ms"),
          Metric("spark.single.overhead_ms", Stat.median(singles.outsideTaskMs), "ms"),
          Metric("spark.build.partition_max_ms", Stat.median(builds.partitionMs.map(_.max)), "ms"),
          Metric("spark.build.partition_skew", Stat.median(builds.partitionMs.map(p => p.max / (p.sum / p.length))), "ratio"),
          Metric("spark.persist.save_ms", Stat.median(reloads.saveMs), "ms"),
          Metric("spark.persist.load_ms", Stat.median(reloads.loadMs), "ms"),
          Metric("spark.persist.bytes", reloads.bytes.toDouble, "bytes"),
        )
        val core = new Layers(trace, gate, w, w.config(partitions), inputs.ids, inputs.data, queries, partitions).all()
        val coreAccessPct = core.find(_.name == "core.query.data_accessed_pct").get.value
        val self = trace.selfMsByLayer
        val overheadMs = singles.tracingOverheadMs
        sparkLayer ++ Seq(
          Metric("spark.data_accessed_mean_pct", batches.accessMeanPct, "%"),
          Metric("spark.access_amplification", batches.accessMeanPct / coreAccessPct, "ratio"),
        ) ++ core ++
          Trace.Layers.map(l => Metric(s"$l.self_ms", self.getOrElse(l, 0.0), "ms")) ++ Seq(
            Metric("trace.overhead_ms", overheadMs, "ms"),
            Metric("trace.overhead_pct", overheadMs / singles.untracedP50 * 100, "%"),
            Metric("trace.spans", trace.spans.size.toDouble, "count"),
          )
      }

    // ---- report ----
    (endToEnd :+ p95).foreach(m => println(f"${m.name}%-28s ${m.value}%.6g ${m.unit}  ${notes.getOrElse(m.name, "")}"))
    println(f"${"error_rate"}%-28s ${gate.errorRate}%.6g ratio  ${gate.failed} failed of ${gate.attempted} checked")
    perLayer.foreach(m => println(f"${m.name}%-40s ${m.value}%.6g ${m.unit}"))
    gate.firstFailure.foreach(f => println(s"# first wrong answer: $f"))

    Files.createDirectories(o.out)
    val stem = s"${w.name}-seed${o.seed}-trace${if (o.trace) 1 else 0}"
    if (o.trace) trace.write(o.out.resolve(s"spans-$stem.jsonl"))
    def render(ms: Seq[Metric]) = ms.map(m => m.name -> Seq("value" -> m.value, "unit" -> m.unit))
    val correct = gate.failed == 0 && gate.attempted > 0
    val record = Seq("workload" -> w.name) ++ env ++ Seq(
      "params" -> w.params(partitions),
      "correct" -> correct, "attempted" -> gate.attempted, "failed" -> gate.failed,
      "error_rate" -> gate.errorRate,
      "end_to_end" -> render(endToEnd :+ p95),
      "per_layer" -> render(perLayer),
      "samples" -> Seq("single_ms" -> singles.ms, "batch_call_ms" -> batches.calls.map(_.callMs),
        "build_s" -> builds.seconds, "reload_s" -> reloads.seconds),
    )
    Files.write(o.out.resolve(s"result-$stem.json"), Json.render(record).getBytes("UTF-8"))
    println(Json.render(Seq("correct" -> correct, "attempted" -> gate.attempted, "failed" -> gate.failed,
      "metrics" -> render(if (o.trace) perLayer else endToEnd))))
    if (correct) 0 else 1
  }
}

/** Order statistics over samples. */
object Stat {
  def median(xs: collection.Seq[Double]): Double = percentile(xs, 50)

  def mean(xs: collection.Seq[Double]): Double = xs.sum / xs.length

  /** Nearest-rank percentile: the smallest sample with at least p% of the
    * samples at or below it.
    */
  def percentile(xs: collection.Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    s(math.max(0, math.ceil(p / 100 * s.length).toInt - 1))
  }

  /** Samples strictly above the nearest-rank p-th percentile of n. */
  def beyond(n: Int, p: Double): Int = n - math.ceil(p / 100 * n).toInt
}
