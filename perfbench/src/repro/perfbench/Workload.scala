package repro.perfbench

import repro.core.{IndexConfig, QueryKnobs, SeriesGen}
import repro.experiments.Runner

/** One benchmark workload: which series, which queries, which k, and whether
  * each partition's HBuffer is too small for its data (so the build spills).
  * The reason for each choice is in perfbench/README.md.
  */
final case class Workload(
    name: String,
    kind: String,
    length: Int,
    queries: String,
    k: Int,
    spill: Boolean,
) {
  /** Per-partition index config for `series` series in all: leaf size 64,
    * one build and one writer thread; a spilling workload gets an HBuffer of
    * a quarter partition.
    */
  def config(partitions: Int, series: Int = Workload.Series): IndexConfig = IndexConfig(
    seriesLength = length,
    leafCapacity = Workload.LeafCapacity,
    buildThreads = 1,
    writerThreads = 1,
    hbufferSlots = if (spill) series / partitions / 4 else 0,
  )

  /** Whole-index knobs: the paper's EAPCA_TH/SAX_TH with the scaled Lmax. */
  def knobs: QueryKnobs = Runner.knobs(k)

  /** The query pool of one seed; ids of the data are `0 until Series`. */
  def queryPool(seed: Long): Array[Array[Float]] =
    SeriesGen.queries(kind, queries, Workload.QueryPool, Workload.Series, length, seed, querySeed = seed)

  def params(partitions: Int): Seq[(String, Any)] = Seq(
    "kind" -> kind, "length" -> length, "queries" -> queries, "k" -> k,
    "series" -> Workload.Series, "partitions" -> partitions,
    "series_per_partition" -> Workload.Series / partitions,
    "leaf_capacity" -> Workload.LeafCapacity, "hbuffer_slots" -> config(partitions).hbufferSlots,
    "lmax" -> knobs.lmax, "lmax_per_partition" -> Runner.scaleKnobs(knobs, partitions).lmax,
    "eapca_th" -> knobs.eapcaTh, "sax_th" -> knobs.saxTh, "query_threads" -> knobs.threads,
    "query_pool" -> Workload.QueryPool,
  )
}

object Workload {
  val Series = 65536
  val LeafCapacity = 64

  val QueryPool = 200

  val All: Seq[Workload] = Seq(
    Workload("walk-1pct", "walk", 256, "1%", k = 1, spill = false),
    Workload("deep-ood", "deep", 96, "ood", k = 10, spill = false),
    Workload("seismic-5pct-spill", "seismic", 256, "5%", k = 10, spill = true),
  )

  def named(name: String): Workload =
    All.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; known: ${All.map(_.name).mkString(", ")}"))
}
