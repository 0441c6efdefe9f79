package repro.perfbench

import java.util.concurrent.{CompletableFuture, ForkJoinPool}
import repro.baselines.BruteForce
import repro.core.Neighbor

/** Correctness gate: every answered query is compared with the
  * `BruteForce.knn` reference on ids and distances (ties are broken by id
  * in both, so the order must match). A query that threw or differs counts
  * as failed.
  */
final class Gate(reference: Array[Array[Neighbor]]) {
  var attempted = 0L
  var failed = 0L
  var firstFailure: Option[String] = None

  def check(qi: Int, got: Array[Neighbor], where: String): Unit = {
    attempted += 1
    val want = reference(qi)
    val same = got.length == want.length && got.indices.forall { j =>
      got(j).id == want(j).id &&
        math.abs(got(j).dist2 - want(j).dist2) <= 1e-6 * math.max(1.0, want(j).dist2)
    }
    if (!same) fail(s"$where: query $qi answered ${show(got)}, expected ${show(want)}")
  }

  /** A call that threw: every query it carried counts as failed. */
  def threw(queries: Int, where: String, e: Throwable): Unit = {
    attempted += queries
    failed += queries - 1
    fail(s"$where threw $e")
  }

  private def fail(msg: String): Unit = {
    failed += 1
    if (firstFailure.isEmpty) firstFailure = Some(msg)
  }

  private def show(ns: Array[Neighbor]): String =
    ns.map(nb => s"${nb.id}@${nb.dist2}").mkString("[", ", ", "]")

  def errorRate: Double = if (attempted == 0) 0.0 else failed.toDouble / attempted
}

object Gate {
  /** Reference answers for `queries`, computed on `threads` threads in the
    * background; join the result before any timer starts.
    */
  def reference(ids: Array[Long], data: Array[Array[Float]], queries: Array[Array[Float]],
                k: Int, threads: Int): CompletableFuture[Array[Array[Neighbor]]] = {
    val pool = new ForkJoinPool(threads)
    val out = CompletableFuture.supplyAsync(() =>
      (0 until queries.length).map(qi => CompletableFuture.supplyAsync(() =>
        BruteForce.knn(ids, data, queries(qi), k), pool)).map(_.join()).toArray, pool)
    out.whenComplete((_, _) => pool.shutdown())
  }
}
