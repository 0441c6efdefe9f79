package repro.core

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite

/** Distance kernels: exactness and early-abandon semantics. */
class DistSpec extends AnyFunSuite {

  test("ed2 of identical series is zero") {
    val s = SeriesGen.dataset("walk", 1, 32, 1)(0)
    assert(Dist.ed2(s, s) == 0.0)
  }

  test("ed2 matches the naive definition") {
    val a = Array(1f, 2f, 3f)
    val b = Array(2f, 0f, 5f)
    assert(math.abs(Dist.ed2(a, b) - (1 + 4 + 4)) < 1e-12)
  }

  private def ed2FlatMatchesEd2(len: Int, seed: Int): Unit = {
    val data = SeriesGen.dataset("walk", 5, len, seed)
    val flat = new Array[Float](5 * len)
    data.zipWithIndex.foreach { case (s, i) => System.arraycopy(s, 0, flat, i * len, len) }
    val q = SeriesGen.dataset("walk", 1, len, seed + 50)(0)
    data.zipWithIndex.foreach { case (s, i) =>
      val d = Dist.ed2Flat(q, flat, i * len, Double.PositiveInfinity)
      assert(java.lang.Double.doubleToLongBits(d) == java.lang.Double.doubleToLongBits(Dist.ed2(q, s)))
    }
  }

  for (seed <- 1 to 6)
    test(s"ed2Flat equals ed2 at every offset (seed $seed)")(ed2FlatMatchesEd2(24, seed))

  // Whole 16-point blocks only, several blocks, and blocks plus a tail.
  for (len <- Seq(16, 50, 96, 100); seed <- 1 to 6)
    test(s"ed2Flat equals ed2 at every offset (len $len, seed $seed)")(ed2FlatMatchesEd2(len, seed))

  for (len <- Seq(16, 64, 96, 100); seed <- 1 to 6)
    test(s"ed2Flat abandoned value exceeds the bound (len $len, seed $seed)") {
      val rng = new Random(200 + seed)
      val q = Array.fill(len)(rng.nextFloat() * 10)
      val flat = Array.fill(3 * len)(-rng.nextFloat() * 10)
      val full = Dist.ed2(q, flat.slice(len, 2 * len))
      for (bound <- Seq(0.0, full / 4, full / 2, full - 1e-9)) {
        val r = Dist.ed2Flat(q, flat, len, bound)
        assert(r > bound && r <= full, s"bound $bound gave $r of $full")
      }
      assert(Dist.ed2Flat(q, flat, len, full) == full)
    }
}
