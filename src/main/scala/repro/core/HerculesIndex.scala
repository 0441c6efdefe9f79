package repro.core

/** A materialized Hercules index: the tree (HTree), the raw series in
  * inorder-leaf order (LRDFile, the [[SeriesIndex]] store), and their iSAX
  * words in the same order (LSDFile). In this reproduction the "files" are
  * flat in-memory arrays (DESIGN.md §3 — the disk substrate is substituted by
  * access counters).
  */
final class HerculesIndex(
    val cfg: IndexConfig,
    val root: Node,
    lrd: Array[Float],
    ids: Array[Long],
    val lsd: Array[Byte],
) extends SeriesIndex(cfg.seriesLength, lrd, ids) {

  /** iSAX codec matching LSDFile (rebuilt after deserialization). */
  @transient lazy val isax: ISax = ISax(cfg)

  /** Leaves in LRDFile order (rebuilt after deserialization). */
  @transient lazy val leaves: IndexedSeq[Node] = root.leavesInorder.toIndexedSeq

  /** Total leaf count. */
  def totalLeaves: Int = leaves.length

  /** Exact k-NN (Algorithm 10). */
  def knn(q: Array[Float], knobs: QueryKnobs, stats: QueryStats = new QueryStats): Array[Neighbor] =
    ExactKnn.search(this, q, knobs, stats)
}

object HerculesIndex {

  /** One-call build pipeline: parallel build + index writing. */
  def build(ids: Array[Long], data: Array[Array[Float]], cfg: IndexConfig,
            mode: BuildMode = BuildMode.Hercules, computeSax: Boolean = true): HerculesIndex = {
    val (tree, store) = new ParallelBuilder(cfg, mode).build(ids, data)
    IndexWriter.write(tree, store, computeSax = computeSax,
      updateSynopses = mode == BuildMode.Hercules, threads = cfg.writerThreads)
  }
}
