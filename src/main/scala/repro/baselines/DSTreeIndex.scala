package repro.baselines

import repro.core._

/** DSTree* baseline (§2, §4.1): the optimized sequential EAPCA tree.
  *
  * Build: single-threaded inserts that maintain every path node's synopsis
  * inline (the cost Hercules defers to index writing — Fig. 12a). Query: the
  * classic exact algorithm — an approximate descent to the query's home leaf
  * seeds the best-so-far, then a priority-queue traversal ordered by
  * `LB_EAPCA` scans every non-pruned leaf with real distances. Single thread,
  * no iSAX, no thresholds.
  */
final class DSTreeIndex(val cfg: IndexConfig, val root: Node, lrd: Array[Float], ids: Array[Long])
    extends SeriesIndex(cfg.seriesLength, lrd, ids) {

  def knn(q: Array[Float], knobs: QueryKnobs, stats: QueryStats): Array[Neighbor] = knn(q, knobs.k, stats)

  /** Exact k-NN (DSTree's search; one thread). */
  def knn(q: Array[Float], k: Int, stats: QueryStats = new QueryStats): Array[Neighbor] = {
    checkQuery(q)
    val qc = new SeriesCtx(q)
    val results = new KnnSet(k)

    def scanLeaf(leaf: Node): Unit = {
      scan(q, leaf.filePos, leaf.filePos + leaf.leafSize, results, stats)
      stats.leavesVisited.incrementAndGet()
    }

    // Approximate answer: descend the split policies to the home leaf.
    var home = root
    while (!home.isLeaf) home = if (home.split.goesLeft(q)) home.left else home.right
    scanLeaf(home)

    // Exact traversal.
    val pq = new java.util.PriorityQueue[(Node, Double)](64,
      (a: (Node, Double), b: (Node, Double)) => java.lang.Double.compare(a._2, b._2))
    pq.add((root, math.sqrt(Eapca.lb2(qc, root))))
    var done = false
    while (!done && !pq.isEmpty) {
      val (node, lb) = pq.poll()
      if (lb > math.sqrt(results.bsf)) done = true
      else if (node.isLeaf) { if (node ne home) scanLeaf(node) }
      else {
        Seq(node.left, node.right).foreach { c =>
          val clb = math.sqrt(Eapca.lb2(qc, c))
          if (clb < math.sqrt(results.bsf)) pq.add((c, clb))
        }
      }
    }
    results.toArray
  }
}

object DSTreeIndex {

  /** Build the DSTree* baseline over a dataset. */
  def build(ids: Array[Long], data: Array[Array[Float]], cfg: IndexConfig): DSTreeIndex = {
    val tree = HerculesIndex.build(ids, data, cfg.copy(buildThreads = 1), BuildMode.Sequential, computeSax = false)
    new DSTreeIndex(tree.cfg, tree.root, tree.lrd, tree.ids)
  }
}
