package repro.perfbench

import scala.collection.mutable.ArrayBuffer
import repro.baselines.{BruteForce, DSTreeIndex, ParISIndex, Pscan, VAFile}
import repro.core._
import repro.perfbench.Main.Metric

/** Per-layer measurements of the traced run, all without Spark, on the
  * workload's own series and queries. Spans wrap each call into a layer's
  * public functions; answers are checked by the same [[Gate]].
  */
final class Layers(trace: Trace, gate: Gate, w: Workload, cfg: IndexConfig,
                   ids: Array[Long], data: Array[Array[Float]], queries: Array[Array[Float]],
                   partitions: Int) {

  /** Timed core builds of one partition's data; metrics are their medians. */
  val CoreBuilds = 3
  /** Queries for the BruteForce time and for each baseline. */
  val ReferenceQueries = 32
  val BaselineQueries = 50
  /** Kernel loops: warm-up, then this many timed blocks of `KernelBlockNs`. */
  val KernelWarmNs = 300000000L
  val KernelBlocks = 5
  val KernelBlockNs = 100000000L

  @volatile private var blackhole = 0.0

  def all(): Seq[Metric] = {
    val build = coreBuild()
    val (idx, query) = coreQuery()
    val kernel = kernels(idx, query)
    build ++ query.metrics ++ kernel ++ baselines()
  }

  /** `core.build`: one partition's share of the data through
    * `ParallelBuilder.build` and `IndexWriter.write`.
    */
  private def coreBuild(): Seq[Metric] = {
    val m = data.length / partitions
    val pIds = ids.take(m)
    val pData = data.take(m)
    val runs = (1 to CoreBuilds).map { _ =>
      val t0 = System.nanoTime()
      val (tree, store) = trace.span("core.build.insert")(new ParallelBuilder(cfg, BuildMode.Hercules).build(pIds, pData))
      val t1 = System.nanoTime()
      val leaves = tree.root.leavesInorder
      val spilled = leaves.iterator.map(_.spilledCount.toLong).sum
      val t2 = System.nanoTime()
      trace.span("core.build.write")(IndexWriter.write(tree, store, computeSax = true,
        updateSynopses = true, threads = cfg.writerThreads))
      val t3 = System.nanoTime()
      (leaves.size, spilled, (t1 - t0) / 1e6, (t3 - t2) / 1e6)
    }
    val (leaves, spilled, _, _) = runs.last
    Seq(
      Metric("core.build.insert_ms", Stat.median(runs.map(_._3)), "ms"),
      Metric("core.build.write_ms", Stat.median(runs.map(_._4)), "ms"),
      // A binary tree has one internal node fewer than leaves.
      Metric("core.build.splits", leaves - 1.0, "count"),
      Metric("core.build.spilled_series", spilled.toDouble, "count"),
      Metric("core.build.leaf_fill", m.toDouble / (leaves * cfg.leafCapacity), "ratio"),
    )
  }

  private final case class QueryLayer(metrics: Seq[Metric], seriesAccessed: Double, saxChecked: Double)

  /** `core.query`: `HerculesIndex.knn` over one whole-data index. */
  private def coreQuery(): (HerculesIndex, QueryLayer) = {
    // The whole-data index keeps every series in its HBuffer: spilling
    // changes build cost, not the tree a query walks.
    val idx = trace.span("core.build.whole")(HerculesIndex.build(ids, data, cfg.copy(hbufferSlots = 0)))
    val knobs = w.knobs
    queries.take(20).foreach(q => idx.knn(q, knobs))
    val ms = new Array[Double](queries.length)
    val stats = Array.fill(queries.length)(new QueryStats)
    queries.indices.foreach { qi =>
      val qid = trace.newRequest()
      val t0 = System.nanoTime()
      val res = trace.span("core.query", qid)(idx.knn(queries(qi), knobs, stats(qi)))
      ms(qi) = (System.nanoTime() - t0) / 1e6
      gate.check(qi, res, "HerculesIndex.knn")
    }
    val bfMs = ArrayBuffer.empty[Double]
    queries.indices.take(ReferenceQueries).foreach { qi =>
      val t0 = System.nanoTime()
      trace.span("baselines.bruteforce.query", trace.newRequest())(BruteForce.knn(ids, data, queries(qi), w.k))
      bfMs += (System.nanoTime() - t0) / 1e6
    }
    def mean(f: QueryStats => Double): Double = stats.map(f).sum / stats.length
    def share(f: QueryStats => Boolean): Double = stats.count(f).toDouble / stats.length
    val saxChecked = mean(_.saxChecked.get.toDouble)
    val candidateSeries = mean(_.candidateSeries.toDouble)
    val seriesAccessed = mean(_.seriesAccessed.get.toDouble)
    val p50 = Stat.median(ms)
    val metrics = Seq(
      Metric("core.query.p50_ms", p50, "ms"),
      Metric("core.query.p95_ms", Stat.percentile(ms, 95), "ms"),
      Metric("core.query.bruteforce_ms", Stat.mean(bfMs), "ms"),
      Metric("core.query.vs_bruteforce_ratio", p50 / Stat.mean(bfMs), "ratio"),
      Metric("core.query.leaves_visited", mean(_.leavesVisited.get.toDouble), "count"),
      Metric("core.query.candidate_leaves", mean(_.candidateLeaves.toDouble), "count"),
      Metric("core.query.candidate_series", candidateSeries, "count"),
      Metric("core.query.sax_checked", saxChecked, "count"),
      Metric("core.query.series_accessed", seriesAccessed, "count"),
      Metric("core.query.data_accessed_pct", seriesAccessed / idx.nSeries * 100, "%"),
      Metric("core.query.step1_stop_share",
        share(s => s.candidateLeaves == 0 && !s.skipSeqEapca && !s.skipSeqSax), "ratio"),
      Metric("core.query.eapca_fallback_share", share(_.skipSeqEapca), "ratio"),
      Metric("core.query.sax_fallback_share", share(_.skipSeqSax), "ratio"),
      // 0 when no query reached step 3 (nothing was attempted).
      Metric("core.query.sax_prune_ratio",
        if (saxChecked == 0) 0.0 else 1 - candidateSeries / saxChecked, "ratio"),
    )
    (idx, QueryLayer(metrics, seriesAccessed, saxChecked))
  }

  /** `core.kernels`: ns per call of each kernel on this index's own data,
    * after a warm-up, with the bytes of operands each call reads. `ed2Flat`
    * runs without early abandoning, so it reads the whole series.
    */
  private def kernels(idx: HerculesIndex, q: QueryLayer): Seq[Metric] = {
    val qs = queries.take(8)
    val n = idx.nSeries
    val len = idx.cfg.seriesLength
    val segs = idx.isax.segments
    val paas = qs.map(idx.isax.paa)
    val ctxs = qs.map(new SeriesCtx(_))
    val nodes = allNodes(idx.root)
    val meanSegs = nodes.map(_.segCount).sum.toDouble / nodes.length

    val ed2 = trace.span("core.kernels.ed2Flat")(nsPerCall(n) { p =>
      val qv = qs(p % qs.length)
      var acc = 0.0
      var i = 0
      while (i < n) { acc += Dist.ed2Flat(qv, idx.lrd, i * len, Double.PositiveInfinity); i += 1 }
      acc
    })
    val sax = trace.span("core.kernels.lbSax2")(nsPerCall(n) { p =>
      val paa = paas(p % paas.length)
      var acc = 0.0
      var i = 0
      while (i < n) { acc += idx.isax.lbSax2(paa, idx.lsd, i * segs); i += 1 }
      acc
    })
    val eapca = trace.span("core.kernels.eapcaLb2")(nsPerCall(nodes.length) { p =>
      val ctx = ctxs(p % ctxs.length)
      var acc = 0.0
      var i = 0
      while (i < nodes.length) { acc += Eapca.lb2(ctx, nodes(i)); i += 1 }
      acc
    })
    Seq(
      Metric("core.kernels.ed2Flat_ns", ed2, "ns"),
      // query and series floats
      Metric("core.kernels.ed2Flat_bytes", 2.0 * len * 4, "bytes"),
      Metric("core.kernels.ed2Flat_calls_per_query", q.seriesAccessed, "count"),
      Metric("core.kernels.lbSax2_ns", sax, "ns"),
      // per segment: word byte, query PAA double, two breakpoints, two ends
      Metric("core.kernels.lbSax2_bytes", segs * (1.0 + 8 + 16 + 8), "bytes"),
      Metric("core.kernels.lbSax2_calls_per_query", q.saxChecked, "count"),
      Metric("core.kernels.eapcaLb2_ns", eapca, "ns"),
      // per segment: four synopsis doubles, two ends, four query prefix sums
      Metric("core.kernels.eapcaLb2_bytes", meanSegs * (32.0 + 8 + 32), "bytes"),
      // QueryStats does not count EAPCA bounds; a query bounds each node at
      // most once, so the node count is an upper bound.
      Metric("core.kernels.eapcaLb2_calls_per_query_max", nodes.length.toDouble, "count"),
    )
  }

  /** Median ns per call over timed blocks of `pass`, which makes
    * `callsPerPass` calls and returns a value that keeps them live.
    */
  private def nsPerCall(callsPerPass: Int)(pass: Int => Double): Double = {
    var sink = 0.0
    var p = 0
    val w0 = System.nanoTime()
    while (System.nanoTime() - w0 < KernelWarmNs) { sink += pass(p); p += 1 }
    val blocks = (1 to KernelBlocks).map { _ =>
      var calls = 0L
      val t0 = System.nanoTime()
      var t = t0
      while (t - t0 < KernelBlockNs) { sink += pass(p); p += 1; calls += callsPerPass; t = System.nanoTime() }
      (t - t0).toDouble / calls
    }
    blackhole = sink
    Stat.median(blocks)
  }

  private def allNodes(root: Node): Array[Node] = {
    val out = ArrayBuffer.empty[Node]
    def walk(nd: Node): Unit = { out += nd; if (!nd.isLeaf) { walk(nd.left); walk(nd.right) } }
    walk(root)
    out.toArray
  }

  /** `baselines`: each method's own index over the whole data, queried
    * without Spark. Reference points only.
    */
  private def baselines(): Seq[Metric] = {
    val k = w.k
    val len = w.length
    val methods: Seq[(String, () => (Array[Float], QueryStats) => Array[Neighbor])] = Seq(
      "pscan" -> (() => { val i = Pscan.build(ids, data, len); (q, s) => i.knn(q, k, 1, s) }),
      "paris" -> (() => { val i = ParISIndex.build(ids, data, cfg); (q, s) => i.knn(q, k, 1, s) }),
      "dstree" -> (() => { val i = DSTreeIndex.build(ids, data, cfg); (q, s) => i.knn(q, k, s) }),
      "vafile" -> (() => { val i = VAFile.build(ids, data, len); (q, s) => i.knn(q, k, s) }),
    )
    methods.flatMap { case (name, build) =>
      val knn = trace.span(s"baselines.$name.build")(build())
      queries.take(5).foreach(q => knn(q, new QueryStats))
      val ms = ArrayBuffer.empty[Double]
      var accessed = 0L
      queries.indices.take(BaselineQueries).foreach { qi =>
        val st = new QueryStats
        val t0 = System.nanoTime()
        val res = trace.span(s"baselines.$name.query", trace.newRequest())(knn(queries(qi), st))
        ms += (System.nanoTime() - t0) / 1e6
        accessed += st.seriesAccessed.get
        gate.check(qi, res, s"$name knn")
      }
      Seq(
        Metric(s"baselines.$name.query_p50_ms", Stat.median(ms), "ms"),
        Metric(s"baselines.$name.data_accessed_pct", accessed.toDouble / ms.size / data.length * 100, "%"),
      )
    }
  }
}
