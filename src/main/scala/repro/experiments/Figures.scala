package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.spark.SeriesFrames

/** One entry point per evaluation figure of the paper (DESIGN.md §5).
  *
  * `scale` multiplies dataset sizes; 1.0 is the bench default (seconds per
  * figure on local[*]). Paper sizes are listed as the `config` labels so the
  * measured rows line up with the digitized paper numbers in EXPERIMENTS.md.
  */
object Figures {
  private val Seed = 20220601L

  private def cfg(len: Int): IndexConfig =
    IndexConfig(seriesLength = len, leafCapacity = 64, buildThreads = 1, writerThreads = 1)

  private def n(base: Int, scale: Double): Int = math.max(256, (base * scale).toInt)

  /** Fig. 6: combined index construction + query answering (100 and 10K
    * 1NN queries) vs dataset size.
    */
  def fig6(spark: SparkSession, scale: Double = 1.0, nQ: Int = 15): Seq[BenchRow] = {
    val len = 256
    val sizes = Seq("25GB" -> n(8000, scale), "50GB" -> n(16000, scale),
      "100GB" -> n(32000, scale), "250GB" -> n(64000, scale))
    sizes.flatMap { case (label, size) =>
      val df = SeriesFrames.dataset(spark, "walk", size, len, Seed)
      val queries = SeriesGen.queries("walk", "ood", nQ, size, len, Seed)
      val runs = Runner.runAll(df, Runner.allMethods, cfg(len), queries, Runner.knobs(1))
      runs.flatMap { r =>
        val q100 = r.avgQueryMs * 100 / 1000.0
        val q10k = Runner.extrapolate10kS(r.perQueryMs)
        Seq(
          BenchRow("fig6", label, r.method, "build_s", r.buildS),
          BenchRow("fig6", label, r.method, "idx+100q_s", r.buildS + q100),
          BenchRow("fig6", label, r.method, "idx+10kq_s", r.buildS + q10k),
        )
      }
    }
  }

  /** Fig. 7: average 1NN query time on very large datasets. */
  def fig7(spark: SparkSession, scale: Double = 1.0, nQ: Int = 10): Seq[BenchRow] = {
    val len = 256
    val sizes = Seq("1TB" -> n(96000, scale), "1.5TB" -> n(144000, scale))
    sizes.flatMap { case (label, size) =>
      val df = SeriesFrames.dataset(spark, "walk", size, len, Seed)
      val queries = SeriesGen.queries("walk", "5%", nQ, size, len, Seed)
      val runs = Runner.runAll(df, Runner.allMethods, cfg(len), queries, Runner.knobs(1))
      runs.map(r => BenchRow("fig7", label, r.method, "avg_query_ms", r.avgQueryMs))
    }
  }

  /** Fig. 8: average query time vs series length at a fixed total volume. */
  def fig8(spark: SparkSession, scale: Double = 1.0, nQ: Int = 10): Seq[BenchRow] = {
    val totalFloats = (8_000_000 * scale).toLong
    Seq(64, 128, 256, 512, 1024).flatMap { len =>
      val size = math.max(512L, totalFloats / len)
      val df = SeriesFrames.dataset(spark, "walk", size, len, Seed)
      val queries = SeriesGen.queries("walk", "5%", nQ, size, len, Seed)
      val runs = Runner.runAll(df, Runner.allMethods, cfg(len), queries, Runner.knobs(1))
      runs.map(r => BenchRow("fig8", s"len$len", r.method, "avg_query_ms", r.avgQueryMs))
    }
  }

  /** Figs. 9 + 10 share datasets and runs: combined idx+query totals (9) and
    * per-query time / % data accessed (10) across real-dataset proxies and
    * workload difficulties.
    */
  def fig9and10(spark: SparkSession, scale: Double = 1.0, nQ: Int = 10): Seq[BenchRow] = {
    val datasets = Seq(("sald", 128), ("seismic", 256), ("deep", 96))
    val workloads = Seq("1%", "2%", "5%", "10%", "ood")
    datasets.flatMap { case (kind, len) =>
      val size = n(24000, scale)
      val df = SeriesFrames.dataset(spark, kind, size, len, Seed)
      val sweeps = workloads.map(wl =>
        (wl, SeriesGen.queries(kind, wl, nQ, size, len, Seed), Runner.knobs(1)))
      Runner.runSweep(df, Runner.allMethods, cfg(len), sweeps).flatMap { case (wl, r) =>
        val q100 = r.avgQueryMs * 100 / 1000.0
        Seq(
          BenchRow("fig9", s"$kind/$wl", r.method, "idx+100q_s", r.buildS + q100),
          BenchRow("fig10", s"$kind/$wl", r.method, "avg_query_ms", r.avgQueryMs),
          BenchRow("fig10", s"$kind/$wl", r.method, "data_accessed_%", r.accessPct),
        )
      }
    }
  }

  /** Fig. 11: query time and % data accessed vs k (5% workload). */
  def fig11(spark: SparkSession, scale: Double = 1.0, nQ: Int = 10): Seq[BenchRow] = {
    val len = 256
    val size = n(32000, scale)
    val df = SeriesFrames.dataset(spark, "walk", size, len, Seed)
    val queries = SeriesGen.queries("walk", "5%", nQ, size, len, Seed)
    val sweeps = Seq(1, 5, 10, 25, 50, 100).map(k => (s"k=$k", queries, Runner.knobs(k)))
    Runner.runSweep(df, Runner.allMethods, cfg(len), sweeps).flatMap { case (label, r) =>
      Seq(
        BenchRow("fig11", label, r.method, "avg_query_ms", r.avgQueryMs),
        BenchRow("fig11", label, r.method, "data_accessed_%", r.accessPct),
      )
    }
  }

  /** Fig. 12a: index construction ablation — the in-core threaded builders
    * (this is where the paper's build protocol itself is exercised).
    */
  def fig12a(scale: Double = 1.0): Seq[BenchRow] = {
    val len = 96
    val size = n(20000, scale)
    val data = SeriesGen.dataset("deep", size, len, Seed)
    val ids = Array.tabulate(size)(_.toLong)
    val base = IndexConfig(seriesLength = len, leafCapacity = 64, buildThreads = 4, writerThreads = 4)

    def time(mode: BuildMode, c: IndexConfig, computeSax: Boolean): Double = {
      val t0 = System.nanoTime()
      HerculesIndex.build(ids, data, c, mode, computeSax)
      (System.nanoTime() - t0) / 1e9
    }

    Seq(
      BenchRow("fig12a", "build", "dstree*", "build_s",
        time(BuildMode.Sequential, base.copy(buildThreads = 1, writerThreads = 1), computeSax = false)),
      BenchRow("fig12a", "build", "dstree*P", "build_s",
        time(BuildMode.PathLocked, base.copy(writerThreads = 1), computeSax = false)),
      BenchRow("fig12a", "build", "noWPara", "build_s",
        time(BuildMode.Hercules, base.copy(writerThreads = 1), computeSax = true)),
      BenchRow("fig12a", "build", "hercules", "build_s",
        time(BuildMode.Hercules, base, computeSax = true)),
    )
  }

  /** Fig. 12b: query-answering ablation — NoSAX / NoPara / NoThresh vs the
    * full Hercules, on the hard (deep) proxy across difficulties.
    */
  def fig12b(spark: SparkSession, scale: Double = 1.0, nQ: Int = 10): Seq[BenchRow] = {
    val len = 96
    val size = n(24000, scale)
    val df = SeriesFrames.dataset(spark, "deep", size, len, Seed)
    val builtP = repro.spark.Distributed.build(df, "hercules", cfg(len),
      Runner.partitionsFor("hercules", spark))
    val built1 = repro.spark.Distributed.build(df, "hercules", cfg(len), 1)
    try {
      // Untimed warmup on both index layouts (JIT bias).
      val warm = SeriesGen.queries("deep", "5%", 3, size, len, Seed)
      val kp = Runner.scaleKnobs(Runner.knobs(1), builtP.partitions)
      repro.spark.Distributed.knnBatch(builtP, warm, kp)
      repro.spark.Distributed.knnBatch(built1, warm, Runner.knobs(1))
      Seq("1%", "5%", "ood").flatMap { wl =>
        val queries = SeriesGen.queries("deep", wl, nQ, size, len, Seed)
        val variants: Seq[(String, repro.spark.Distributed.QueryBatchResult)] = Seq(
          ("hercules", repro.spark.Distributed.knnBatch(builtP, queries, kp)),
          ("noSAX", repro.spark.Distributed.knnBatch(builtP, queries, kp.copy(useSax = false))),
          ("noPara", repro.spark.Distributed.knnBatch(built1, queries, Runner.knobs(1))),
          ("noThresh", repro.spark.Distributed.knnBatch(builtP, queries, kp.copy(useThresholds = false))),
        )
        Runner.checkExactAgreement(variants.map { case (name, res) =>
          Runner.MethodRun(name, 0.0, res.avgQueryMs, res.perQueryMs,
            res.avgAccessFraction * 100.0, res.neighbors)
        })
        variants.map { case (name, res) =>
          BenchRow("fig12b", wl, name, "avg_query_ms", res.avgQueryMs)
        }
      }
    } finally {
      builtP.unpersist()
      built1.unpersist()
    }
  }
}
