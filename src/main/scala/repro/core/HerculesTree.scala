package repro.core

import java.util.concurrent.atomic.AtomicInteger
import scala.collection.mutable.ArrayBuffer

/** Split-policy selection (§3.2): evaluates every H-split and V-split
  * candidate on the actual leaf contents and keeps the one maximizing the
  * "QoS" *gain* — the reduction, from the undivided node to the weighted
  * children, of the per-segment squared synopsis ranges measured on the
  * candidate's own child segmentation (the DSTree heuristic family: tighter
  * child ranges ⇒ tighter `LB_EAPCA`). Measuring before and after on the
  * same segmentation is what lets V-splits compete fairly with H-splits:
  * z-normalized series are indistinguishable on the whole-series segment
  * (μ=0, σ=1), so the root must discover sub-segment structure.
  */
object SplitPolicy {

  /** Pick the best split for a full leaf, or None when the leaf's series are
    * indistinguishable under every candidate statistic (the leaf is then
    * allowed to exceed capacity instead of splitting forever).
    *
    * Candidates are tried per segment in a fixed order (H on μ, H on σ, then
    * the V-split's left half on μ and σ, its right half on μ and σ); a later
    * candidate wins only with a strictly larger gain.
    */
  def choose(node: Node, series: IndexedSeq[Array[Float]]): Option[SplitInfo] = {
    val search = new SplitSearch(series)
    val h = search.segmentation(node.ends)
    var seg = 0
    while (seg < node.segCount) {
      val st = node.segStart(seg)
      val en = node.ends(seg)
      search.consider(h, vertical = false, seg, useSd = false)
      search.consider(h, vertical = false, seg, useSd = true)
      if (en - st >= 2) {
        val mid = (st + en) / 2
        val vEnds = (node.ends.take(seg) :+ mid) ++ node.ends.drop(seg)
        val v = search.halve(h, seg, vEnds)
        search.consider(v, vertical = true, seg, useSd = false)
        search.consider(v, vertical = true, seg, useSd = true)
        search.consider(v, vertical = true, seg + 1, useSd = false)
        search.consider(v, vertical = true, seg + 1, useSd = true)
      }
      seg += 1
    }
    Option(search.best)
  }

  /** One candidate segmentation: its endpoints, one μ and one σ column per
    * segment (indexed by series), and the undivided node's QoS on it.
    */
  private final class Segmentation(val ends: Array[Int], val mu: Array[Array[Double]],
                                   val sd: Array[Array[Double]]) {
    var before: Double = 0.0
  }

  /** State of one `choose` call: per-series prefix sums, the routing stats
    * of the current candidate, and the best candidate so far.
    */
  private final class SplitSearch(series: IndexedSeq[Array[Float]]) {
    private val rho = series.length
    private val ctxs = series.iterator.map(new SeriesCtx(_)).toArray
    private val stats = new Array[Double](rho)
    // Series indices, left child's first; both sides in ascending order.
    private val order = new Array[Int](rho)
    private val all = Array.range(0, rho)
    private var qosLeft = 0.0
    private var qosRight = 0.0
    var best: SplitInfo = null
    private var bestGain = Double.NegativeInfinity

    /** The μ/σ columns of `ends` and its node-wide QoS. */
    def segmentation(ends: Array[Int]): Segmentation = {
      val cols = Array.tabulate(ends.length)(j => column(if (j == 0) 0 else ends(j - 1), ends(j)))
      withBefore(new Segmentation(ends, cols.map(_._1), cols.map(_._2)))
    }

    /** `h` with segment `seg` halved (endpoints `vEnds`): shares every other
      * column with `h` and computes only the two halves.
      */
    def halve(h: Segmentation, seg: Int, vEnds: Array[Int]): Segmentation = {
      val (lMu, lSd) = column(if (seg == 0) 0 else vEnds(seg - 1), vEnds(seg))
      val (rMu, rSd) = column(vEnds(seg), vEnds(seg + 1))
      def spliced(cols: Array[Array[Double]], l: Array[Double], r: Array[Double]) =
        (cols.take(seg) :+ l :+ r) ++ cols.drop(seg + 1)
      withBefore(new Segmentation(vEnds, spliced(h.mu, lMu, rMu), spliced(h.sd, lSd, rSd)))
    }

    private def column(from: Int, until: Int): (Array[Double], Array[Double]) = {
      val mu = new Array[Double](rho)
      val sd = new Array[Double](rho)
      var i = 0
      while (i < rho) { mu(i) = ctxs(i).mean(from, until); sd(i) = ctxs(i).sd(from, until); i += 1 }
      (mu, sd)
    }

    private def withBefore(s: Segmentation): Segmentation = {
      childrenQos(s, all, 0) // the whole node as one "right" child
      s.before = qosRight
      s
    }

    /** Evaluate splitting on segment `routeSeg` of `s` by μ (or σ). */
    def consider(s: Segmentation, vertical: Boolean, routeSeg: Int, useSd: Boolean): Unit = {
      val col = if (useSd) s.sd(routeSeg) else s.mu(routeSeg)
      var i = 0
      var mn = Double.PositiveInfinity
      var mx = Double.NegativeInfinity
      while (i < rho) {
        val v = col(i)
        stats(i) = v
        if (v < mn) mn = v
        if (v > mx) mx = v
        i += 1
      }
      if (mx <= mn) return // cannot separate on this stat
      var value = (mn + mx) / 2.0 // midrange, as in the paper's H-split
      var leftCnt = stats.count(_ < value)
      if (leftCnt == 0 || leftCnt == rho) {
        // Skewed: midrange leaves a side empty; fall back to the second
        // distinct value so both children are non-empty.
        val distinct = stats.distinct.sorted
        value = distinct(1)
        leftCnt = stats.count(_ < value)
      }
      // QoS gain: the node's QoS on this segmentation minus the
      // count-weighted children QoS. Positive = tighter synopsis ranges.
      var l = 0
      var r = leftCnt
      i = 0
      while (i < rho) {
        if (stats(i) < value) { order(l) = i; l += 1 } else { order(r) = i; r += 1 }
        i += 1
      }
      childrenQos(s, order, leftCnt)
      val after = leftCnt.toDouble / rho * qosLeft + (rho - leftCnt).toDouble / rho * qosRight
      val gain = s.before - after
      if (gain > bestGain) {
        bestGain = gain
        best = SplitInfo(vertical, s.ends, routeSeg, useSd, value)
      }
    }

    /** QoS of the left (`ord[0, nLeft)`) and right (the rest) children on
      * `s`: over the segments where a side has members,
      * Σ `len · (μ range² + σ range²)`. One pass per segment fills both
      * children's min/max accumulators.
      */
    private def childrenQos(s: Segmentation, ord: Array[Int], nLeft: Int): Unit = {
      var qL = 0.0
      var qR = 0.0
      var j = 0
      while (j < s.ends.length) {
        val mu = s.mu(j)
        val sd = s.sd(j)
        var muMinL = Double.PositiveInfinity
        var muMaxL = Double.NegativeInfinity
        var sdMinL = Double.PositiveInfinity
        var sdMaxL = Double.NegativeInfinity
        var muMinR = Double.PositiveInfinity
        var muMaxR = Double.NegativeInfinity
        var sdMinR = Double.PositiveInfinity
        var sdMaxR = Double.NegativeInfinity
        var k = 0
        while (k < nLeft) {
          val m = mu(ord(k))
          val d = sd(ord(k))
          if (m < muMinL) muMinL = m
          if (m > muMaxL) muMaxL = m
          if (d < sdMinL) sdMinL = d
          if (d > sdMaxL) sdMaxL = d
          k += 1
        }
        while (k < rho) {
          val m = mu(ord(k))
          val d = sd(ord(k))
          if (m < muMinR) muMinR = m
          if (m > muMaxR) muMaxR = m
          if (d < sdMinR) sdMinR = d
          if (d > sdMaxR) sdMaxR = d
          k += 1
        }
        val len = s.ends(j) - (if (j == 0) 0 else s.ends(j - 1))
        if (!muMinL.isPosInfinity) {
          val dm = muMaxL - muMinL
          val ds = sdMaxL - sdMinL
          qL += len * (dm * dm + ds * ds)
        }
        if (!muMinR.isPosInfinity) {
          val dm = muMaxR - muMinR
          val ds = sdMaxR - sdMinR
          qR += len * (dm * dm + ds * ds)
        }
        j += 1
      }
      qosLeft = qL
      qosRight = qR
    }
  }
}

/** The Hercules index tree (§3.2) with the insertion paths of §3.3:
  * lock-free routing, leaf-only locking (Algorithm 5), and — for the
  * ablation study — sequential (DSTree*) and path-locked (DSTree*P) modes.
  */
final class HerculesTree(val cfg: IndexConfig) extends Serializable {
  private val nextId = new AtomicInteger(0)

  /** Root starts as a single-segment leaf over the whole series. */
  val root: Node = newNode(Array(cfg.seriesLength))

  private def newNode(ends: Array[Int]): Node = new Node(ends, nextId.getAndIncrement())

  /** Descend from `from` to the leaf that should hold `s` (no locks; relies
    * on `isLeaf` volatile publication of splits).
    */
  def routeToLeaf(from: Node, s: Array[Float]): Node = {
    var n = from
    while (!n.isLeaf) n = if (n.split.goesLeft(s)) n.left else n.right
    n
  }

  /** Algorithm 5: route, lock the leaf, re-check leafness, append, and split
    * when full. Only the leaf is locked; internal synopses are deferred to
    * index writing (Hercules mode).
    */
  def insertConcurrent(id: Long, s: Array[Float], worker: Int, store: SeriesStore): Unit = {
    while (true) {
      val leaf = routeToLeaf(root, s)
      leaf.synchronized {
        if (leaf.isLeaf) {
          appendToLeaf(leaf, id, s, worker, store)
          return
        }
      }
      // Lost a race with a split of this leaf: re-route (Algorithm 5 loop).
    }
  }

  /** DSTree* sequential insert: additionally maintains the synopsis of every
    * node on the root-to-leaf path (the work Hercules defers — Fig. 12a).
    */
  def insertSequential(id: Long, s: Array[Float], store: SeriesStore): Unit = {
    var n = root
    while (!n.isLeaf) { n.updateSynopsis(s); n.count += 1; n = if (n.split.goesLeft(s)) n.left else n.right }
    appendToLeaf(n, id, s, 0, store)
  }

  /** DSTree*P ablation insert: locks the whole root-to-leaf path (in root→leaf
    * order, so deadlock-free) to update internal synopses concurrently.
    */
  def insertPathLocked(id: Long, s: Array[Float], worker: Int, store: SeriesStore): Unit = {
    while (true) {
      val path = new ArrayBuffer[Node]
      var n = root
      path += n
      while (!n.isLeaf) { n = if (n.split.goesLeft(s)) n.left else n.right; path += n }
      path.foreach(_.lock.lock())
      try {
        val leaf = path.last
        if (leaf.isLeaf) {
          var i = 0
          while (i < path.length - 1) { path(i).updateSynopsis(s); path(i).count += 1; i += 1 }
          leaf.synchronized(appendToLeaf(leaf, id, s, worker, store))
          return
        }
      } finally path.reverseIterator.foreach(_.lock.unlock())
    }
  }

  /** Append under the leaf lock; update the leaf synopsis; split when full. */
  private def appendToLeaf(leaf: Node, id: Long, s: Array[Float], worker: Int, store: SeriesStore): Unit = {
    leaf.updateSynopsis(s)
    val slot = store.alloc(worker, id, s)
    leaf.slots += slot
    leaf.count += 1
    if (leaf.count >= cfg.leafCapacity) splitLeaf(leaf, store)
  }

  /** Split a full leaf (Algorithm 5 lines 9–14): gather its series from
    * memory and spill, choose the best policy from the actual data, create
    * two children, and redistribute SBuffer slots / spill records.
    */
  private def splitLeaf(leaf: Node, store: SeriesStore): Unit = {
    val spilled = store.readSpill(leaf)
    val memSlots = leaf.slots
    val memSeries = memSlots.map(store.seriesAt)
    SplitPolicy.choose(leaf, (spilled.map(_._2) ++ memSeries).toIndexedSeq) match {
      case None => // indistinguishable contents: tolerate an oversized leaf
      case Some(policy) =>
        val l = newNode(policy.childEnds)
        val r = newNode(policy.childEnds)
        l.parent = leaf
        r.parent = leaf
        // Spilled records move to the children's spill files, in order.
        val (toL, toR) = spilled.partition { case (_, sv) => policy.goesLeft(sv) }
        for ((child, records) <- Seq(l -> toL, r -> toR) if records.nonEmpty) {
          store.appendSpill(child, records)
          records.foreach { case (_, sv) => child.updateSynopsis(sv); child.count += 1 }
        }
        // In-memory slots keep their HBuffer place; only SBuffer pointers move.
        var k = 0
        while (k < memSlots.length) {
          val sv = memSeries(k)
          val child = if (policy.goesLeft(sv)) l else r
          child.slots += memSlots(k)
          child.updateSynopsis(sv)
          child.count += 1
          k += 1
        }
        store.dropSpill(leaf)
        leaf.slots = null
        leaf.split = policy
        leaf.left = l
        leaf.right = r
        leaf.isLeaf = false // volatile store last: publishes the split safely
    }
  }

  /** Number of leaves currently in the tree. */
  def leafCount: Int = root.leavesInorder.size
}
