package repro.core

/** The split choice as first written: `qosGain` recomputes every series'
  * per-segment mean and sd for each candidate. Kept verbatim as the reference
  * that [[SplitPolicy.choose]] must match bit for bit.
  */
object SplitPolicyOracle {

  /** Pick the best split for a full leaf, or None when the leaf's series are
    * indistinguishable under every candidate statistic (the leaf is then
    * allowed to exceed capacity instead of splitting forever).
    */
  def choose(node: Node, series: IndexedSeq[Array[Float]]): Option[SplitInfo] = {
    val ctxs = series.map(new SeriesCtx(_))
    val rho = series.length

    var best: SplitInfo = null
    var bestGain = Double.NegativeInfinity

    def consider(vertical: Boolean, childEnds: Array[Int], routeSeg: Int, useSd: Boolean): Unit = {
      val from = if (routeSeg == 0) 0 else childEnds(routeSeg - 1)
      val until = childEnds(routeSeg)
      val stats = new Array[Double](rho)
      var i = 0
      var mn = Double.PositiveInfinity
      var mx = Double.NegativeInfinity
      while (i < rho) {
        val v = if (useSd) ctxs(i).sd(from, until) else ctxs(i).mean(from, until)
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
      val gain = qosGain(ctxs, stats, value, childEnds, leftCnt, rho - leftCnt)
      if (gain > bestGain) {
        bestGain = gain
        best = SplitInfo(vertical, childEnds, routeSeg, useSd, value)
      }
    }

    var seg = 0
    while (seg < node.segCount) {
      val st = node.segStart(seg)
      val en = node.ends(seg)
      consider(vertical = false, node.ends, seg, useSd = false)
      consider(vertical = false, node.ends, seg, useSd = true)
      if (en - st >= 2) {
        val mid = (st + en) / 2
        val vEnds = (node.ends.take(seg) :+ mid) ++ node.ends.drop(seg)
        consider(vertical = true, vEnds, seg, useSd = false)
        consider(vertical = true, vEnds, seg, useSd = true)
        consider(vertical = true, vEnds, seg + 1, useSd = false)
        consider(vertical = true, vEnds, seg + 1, useSd = true)
      }
      seg += 1
    }
    Option(best)
  }

  /** QoS gain of one candidate: the node's QoS on the candidate's child
    * segmentation minus the count-weighted children QoS (same segmentation).
    * Positive gain = the split tightens the synopsis ranges.
    */
  private def qosGain(ctxs: IndexedSeq[SeriesCtx], stats: Array[Double], value: Double,
                      childEnds: Array[Int], leftCnt: Int, rightCnt: Int): Double = {
    val m = childEnds.length
    // accumulators 0=left, 1=right, 2=whole node; rows: muMin,muMax,sdMin,sdMax
    val acc = Array.fill(3)(Array.fill(4, m)(0.0))
    acc.foreach { a =>
      java.util.Arrays.fill(a(0), Double.PositiveInfinity)
      java.util.Arrays.fill(a(1), Double.NegativeInfinity)
      java.util.Arrays.fill(a(2), Double.PositiveInfinity)
      java.util.Arrays.fill(a(3), Double.NegativeInfinity)
    }
    var i = 0
    while (i < ctxs.length) {
      val side = if (stats(i) < value) 0 else 1
      var j = 0
      while (j < m) {
        val from = if (j == 0) 0 else childEnds(j - 1)
        val until = childEnds(j)
        val mu = ctxs(i).mean(from, until)
        val sd = ctxs(i).sd(from, until)
        var g = 0
        while (g < 2) {
          val a = if (g == 0) acc(side) else acc(2)
          if (mu < a(0)(j)) a(0)(j) = mu
          if (mu > a(1)(j)) a(1)(j) = mu
          if (sd < a(2)(j)) a(2)(j) = sd
          if (sd > a(3)(j)) a(3)(j) = sd
          g += 1
        }
        j += 1
      }
      i += 1
    }
    def qos(a: Array[Array[Double]]): Double = {
      var j = 0
      var q = 0.0
      while (j < m) {
        if (!a(0)(j).isPosInfinity) {
          val len = childEnds(j) - (if (j == 0) 0 else childEnds(j - 1))
          val dm = a(1)(j) - a(0)(j)
          val ds = a(3)(j) - a(2)(j)
          q += len * (dm * dm + ds * ds)
        }
        j += 1
      }
      q
    }
    val before = qos(acc(2))
    val after = leftCnt.toDouble / ctxs.length * qos(acc(0)) +
      rightCnt.toDouble / ctxs.length * qos(acc(1))
    before - after
  }
}
