package repro.core

import java.util.concurrent.atomic.AtomicInteger
import scala.collection.mutable.ArrayBuffer

/** Index writing (§3.3.3, Algorithms 6–9).
  *
  * Post-processes every leaf in parallel (fetch-add leaf cursor, one worker
  * per leaf): materializes the leaf's raw series into LRDFile order (inorder
  * leaf traversal), computes their iSAX words into LSDFile, and rebuilds the
  * ancestors' synopses bottom-up — `HSplitSynopsis` merges the leaf synopsis
  * into every ancestor segment that survives intact on the path, while
  * `VSplitSynopsis` recomputes vertically-destroyed segments from the raw
  * series (their min/max cannot be derived from the children's finer
  * segments). Ancestor updates are min/max folds, so they commute and only
  * need a per-node lock.
  */
object IndexWriter {

  /** Materialize `tree` (+ its HBuffer/spill contents) into a queryable
    * [[HerculesIndex]].
    *
    * @param computeSax      false for EAPCA-only baselines (DSTree*)
    * @param updateSynopses  false when internal synopses were maintained
    *                        during inserts (Sequential/PathLocked modes)
    * @param threads         WriteIndexWorker count (1 = NoWPara ablation)
    *
    * The store's spill directory is deleted when writing ends, also on failure.
    */
  def write(tree: HerculesTree, store: SeriesStore, computeSax: Boolean = true,
            updateSynopses: Boolean = true, threads: Int = 1): HerculesIndex =
    try materialize(tree, store, computeSax, updateSynopses, threads)
    finally store.release()

  private def materialize(tree: HerculesTree, store: SeriesStore, computeSax: Boolean,
                          updateSynopses: Boolean, threads: Int): HerculesIndex = {
    val cfg = tree.cfg
    val len = cfg.seriesLength
    val leaves = tree.root.leavesInorder
    var pos = 0
    leaves.foreach { leaf =>
      leaf.filePos = pos
      leaf.leafSize = leaf.count
      pos += leaf.count
    }
    val n = pos
    val lrd = new Array[Float](n * len)
    val idsArr = new Array[Long](n)
    val isax = ISax(cfg)
    val lsd = if (computeSax) new Array[Byte](n * isax.segments) else null

    val cursor = new AtomicInteger(0)
    def processLeaves(): Unit = {
      var j = cursor.getAndIncrement()
      while (j < leaves.length) {
        processLeaf(leaves(j), store, lrd, idsArr, lsd, isax, len, updateSynopses)
        j = cursor.getAndIncrement()
      }
    }
    Par.run(math.max(1, threads))(_ => processLeaves())

    // WriteIndexTree: fix subtree counts (post-order) and drop build state.
    def finish(node: Node): Int = {
      if (!node.isLeaf) node.count = finish(node.left) + finish(node.right)
      node.count
    }
    finish(tree.root)

    new HerculesIndex(cfg, tree.root, lrd, idsArr, lsd)
  }

  /** ProcessLeaf of Algorithm 7: materialize + summarize + fix ancestors. */
  private def processLeaf(leaf: Node, store: SeriesStore, lrd: Array[Float],
                          idsArr: Array[Long], lsd: Array[Byte], isax: ISax,
                          len: Int, updateSynopses: Boolean): Unit = {
    val vals = store.gather(leaf)
    require(vals.length == leaf.count, s"leaf ${leaf.id}: ${vals.length} != ${leaf.count}")
    var i = 0
    while (i < vals.length) {
      val (sid, s) = vals(i)
      val at = leaf.filePos + i
      System.arraycopy(s, 0, lrd, at * len, len)
      idsArr(at) = sid
      if (lsd != null) System.arraycopy(isax.word(s), 0, lsd, at * isax.segments, isax.segments)
      i += 1
    }
    store.dropSpill(leaf)
    leaf.slots = null

    if (updateSynopses && leaf.parent != null) {
      // Segments of this leaf, keyed by their (start, end) range.
      val leafSegs = new java.util.HashMap[Long, Integer]
      var j = 0
      while (j < leaf.segCount) {
        leafSegs.put(leaf.segStart(j).toLong << 32 | leaf.ends(j), j)
        j += 1
      }
      // Destroyed ranges to recompute from raw data: (node, segIdx, st, en).
      val destroyed = new ArrayBuffer[(Node, Int, Int, Int)]
      var a = leaf.parent
      while (a != null) {
        a.synchronized {
          var k = 0
          while (k < a.segCount) {
            val st = a.segStart(k)
            val en = a.ends(k)
            val mine = leafSegs.get(st.toLong << 32 | en)
            if (mine != null) a.mergeSegment(k, leaf, mine) // HSplitSynopsis
            else destroyed += ((a, k, st, en))
            k += 1
          }
        }
        a = a.parent
      }
      if (destroyed.nonEmpty) {
        // VSplitSynopsis: one pass over the leaf's raw series per distinct
        // destroyed range, folded locally, then one locked update per node.
        destroyed.groupBy(d => (d._3, d._4)).foreach { case ((st, en), entries) =>
          var mMin = Double.PositiveInfinity
          var mMax = Double.NegativeInfinity
          var sMin = Double.PositiveInfinity
          var sMax = Double.NegativeInfinity
          vals.foreach { case (_, s) =>
            val (m, sd) = Stats.meanSd(s, st, en)
            if (m < mMin) mMin = m
            if (m > mMax) mMax = m
            if (sd < sMin) sMin = sd
            if (sd > sMax) sMax = sd
          }
          entries.foreach { case (node, k, _, _) =>
            node.synchronized {
              node.updateSegment(k, mMin, sMin)
              node.updateSegment(k, mMax, sMax)
            }
          }
        }
      }
    }
  }
}

/** The one place the core starts and joins worker threads: a shared pool
  * for the paper's worker-pool patterns.
  */
object Par {
  private lazy val pool = java.util.concurrent.Executors.newCachedThreadPool(
    (r: Runnable) => { val t = new Thread(r, "repro-par"); t.setDaemon(true); t })

  /** Run `body(0…threads-1)` concurrently and wait for every worker; inline
    * when threads==1. If workers fail, rethrows the exception of the lowest
    * failed worker, with the others' exceptions added as suppressed.
    */
  def run(threads: Int)(body: Int => Unit): Unit =
    if (threads <= 1) body(0)
    else {
      val futs = (0 until threads).map(t => pool.submit(new Runnable { def run(): Unit = body(t) }))
      val failures = futs.flatMap { f =>
        try { f.get(); None }
        catch { case e: java.util.concurrent.ExecutionException => Some(e.getCause) }
      }
      failures.headOption.foreach { first =>
        failures.tail.foreach(first.addSuppressed)
        throw first
      }
    }
}
