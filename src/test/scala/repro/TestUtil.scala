package repro

import repro.core._
import repro.baselines.BruteForce

/** Shared helpers for the test suites: tiny configs, datasets, and the
  * brute-force agreement assertion every exactness test uses.
  */
object TestUtil {

  /** Small index config for unit tests. */
  def cfg(len: Int, leaf: Int = 16, threads: Int = 1): IndexConfig =
    IndexConfig(seriesLength = len, leafCapacity = leaf, buildThreads = threads,
      writerThreads = threads, dbSize = 64)

  /** Deterministic walk dataset with ids 0..n-1. */
  def dataset(n: Int, len: Int, seed: Long, kind: String = "walk"): (Array[Long], Array[Array[Float]]) =
    (Array.tabulate(n)(_.toLong), SeriesGen.dataset(kind, n, len, seed))

  /** SHA-256 (hex) of everything a build decides: per node in preorder, the
    * split (`vertical`, value bits, `childEnds`, `routeSeg`, `useSd`) or the
    * leaf size; then LRDFile's float bits and the ids in file order.
    */
  def treeDigest(index: HerculesIndex): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    val out = new java.io.DataOutputStream(new java.security.DigestOutputStream(
      java.io.OutputStream.nullOutputStream(), md))
    def walk(n: Node): Unit =
      if (n.isLeaf) { out.writeByte(0); out.writeInt(n.leafSize) }
      else {
        val s = n.split
        out.writeByte(1)
        out.writeBoolean(s.vertical)
        out.writeLong(java.lang.Double.doubleToLongBits(s.value))
        out.writeInt(s.childEnds.length)
        s.childEnds.foreach(out.writeInt)
        out.writeInt(s.routeSeg)
        out.writeBoolean(s.useSd)
        walk(n.left)
        walk(n.right)
      }
    walk(index.root)
    index.lrd.foreach(f => out.writeInt(java.lang.Float.floatToRawIntBits(f)))
    index.ids.foreach(out.writeLong)
    out.flush()
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  /** Assert `body` throws an `IllegalArgumentException`, possibly wrapped
    * (as Spark wraps a failed task's exception), whose message contains every
    * one of `parts`.
    */
  def assertRejected(parts: String*)(body: => Any): Unit = {
    val thrown = try { body; None } catch { case e: Exception => Some(e) }
    assert(thrown.isDefined, "expected an IllegalArgumentException, but nothing was thrown")
    val iae = Iterator.iterate[Throwable](thrown.get)(_.getCause).takeWhile(_ != null)
      .collectFirst { case e: IllegalArgumentException => e }
    assert(iae.isDefined, s"expected an IllegalArgumentException, got ${thrown.get}")
    parts.foreach(p => assert(iae.get.getMessage.contains(p), s"'${iae.get.getMessage}' lacks '$p'"))
  }

  /** Run `body` on its own thread and wait at most `seconds` for it, so a
    * deadlocked build fails its test instead of stalling the suite. Rethrows
    * what `body` throws.
    */
  def withinSeconds[T](seconds: Int)(body: => T): T = {
    import scala.concurrent.{Await, ExecutionContext, Future}
    Await.result(Future(body)(ExecutionContext.global), scala.concurrent.duration.Duration(seconds, "s"))
  }

  /** Assert `actual` equals the brute-force exact k-NN for `q`. */
  def assertExact(ids: Array[Long], data: Array[Array[Float]], q: Array[Float], k: Int,
                  actual: Array[Neighbor], context: String = ""): Unit = {
    val expect = BruteForce.knn(ids, data, q, k)
    assert(expect.length == actual.length,
      s"$context: got ${actual.length} answers, expected ${expect.length}")
    expect.zip(actual).zipWithIndex.foreach { case ((e, a), i) =>
      assert(e.id == a.id && math.abs(e.dist2 - a.dist2) <= 1e-9 * math.max(1.0, e.dist2),
        s"$context: rank $i differs: expected (${e.id}, ${e.dist2}), got (${a.id}, ${a.dist2})")
    }
  }
}
