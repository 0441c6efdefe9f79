package repro.core

import java.nio.file.Path
import scala.collection.mutable.ArrayBuffer

/** Split policy of an internal node (§3.2).
  *
  * For an H-split `childEnds` equals the parent segmentation; for a V-split
  * one parent segment is halved. Routing evaluates the mean (or sd) of the
  * child segment `routeSeg` and sends the series left iff `stat < value`.
  *
  * @param vertical  true for a V-split (children gain one segment)
  * @param childEnds children's segmentation (right-exclusive endpoints)
  * @param routeSeg  index into `childEnds` of the segment the split tests
  * @param useSd     route on the standard deviation instead of the mean
  * @param value     split point (midrange or median of the routing stat)
  */
final case class SplitInfo(
    vertical: Boolean,
    childEnds: Array[Int],
    routeSeg: Int,
    useSd: Boolean,
    value: Double,
) extends Serializable {

  /** Routing statistic of `s` for this split. */
  def statOf(s: Array[Float]): Double = {
    val from = if (routeSeg == 0) 0 else childEnds(routeSeg - 1)
    val until = childEnds(routeSeg)
    val (m, sd) = Stats.meanSd(s, from, until)
    if (useSd) sd else m
  }

  /** True iff `s` belongs to the left child. */
  def goesLeft(s: Array[Float]): Boolean = statOf(s) < value
}

/** A Hercules/DSTree tree node (§3.2, Fig. 2).
  *
  * Every node owns a segmentation `ends` of `[0, seriesLength)` and a
  * synopsis per segment: min/max of the member series' per-segment mean and
  * standard deviation. Leaves additionally own build-time storage: a SBuffer
  * of HBuffer slot indices plus an optional spill file (§3.3), replaced after
  * index writing by a position/extent in LRDFile.
  */
final class Node(val ends: Array[Int], val id: Int) extends Serializable {
  /** Leaf flag; volatile so lock-free routing safely observes splits. */
  @volatile var isLeaf: Boolean = true

  /** Series stored in this leaf (leaves) / in the subtree (after writing). */
  var count: Int = 0

  val segCount: Int = ends.length
  val muMin: Array[Double] = Array.fill(segCount)(Double.PositiveInfinity)
  val muMax: Array[Double] = Array.fill(segCount)(Double.NegativeInfinity)
  val sdMin: Array[Double] = Array.fill(segCount)(Double.PositiveInfinity)
  val sdMax: Array[Double] = Array.fill(segCount)(Double.NegativeInfinity)

  var split: SplitInfo = _
  var left: Node = _
  var right: Node = _
  var parent: Node = _

  /** Explicit lock for modes that must hold several nodes at once (DSTree*P
    * path locking); re-created after deserialization.
    */
  @transient lazy val lock = new java.util.concurrent.locks.ReentrantLock

  // Build-time leaf storage (dropped before serialization by IndexWriter).
  @transient var slots: ArrayBuffer[Int] = new ArrayBuffer[Int]
  @transient var spillFile: Path = _
  var spilledCount: Int = 0

  // After index writing: first series index and extent in LRDFile.
  var filePos: Int = -1
  var leafSize: Int = 0

  /** Start of segment `i` of this node's segmentation. */
  def segStart(i: Int): Int = if (i == 0) 0 else ends(i - 1)

  /** Fold one member series' per-segment stats into this node's synopsis. */
  def updateSynopsis(s: Array[Float]): Unit = {
    var i = 0
    while (i < segCount) {
      val (m, sd) = Stats.meanSd(s, segStart(i), ends(i))
      updateSegment(i, m, sd)
      i += 1
    }
  }

  /** Fold an explicit (mean, sd) pair for segment `i` into the synopsis. */
  def updateSegment(i: Int, m: Double, sd: Double): Unit = {
    if (m < muMin(i)) muMin(i) = m
    if (m > muMax(i)) muMax(i) = m
    if (sd < sdMin(i)) sdMin(i) = sd
    if (sd > sdMax(i)) sdMax(i) = sd
  }

  /** Fold another node's synopsis for `their` segment into ours at `mine`. */
  def mergeSegment(mine: Int, other: Node, their: Int): Unit = {
    if (other.muMin(their) < muMin(mine)) muMin(mine) = other.muMin(their)
    if (other.muMax(their) > muMax(mine)) muMax(mine) = other.muMax(their)
    if (other.sdMin(their) < sdMin(mine)) sdMin(mine) = other.sdMin(their)
    if (other.sdMax(their) > sdMax(mine)) sdMax(mine) = other.sdMax(their)
  }

  /** Leaves of this subtree, left-to-right (inorder leaf order → LRDFile order). */
  def leavesInorder: ArrayBuffer[Node] = {
    val out = new ArrayBuffer[Node]
    def walk(n: Node): Unit =
      if (n.isLeaf) out += n
      else { walk(n.left); walk(n.right) }
    walk(this)
    out
  }
}
