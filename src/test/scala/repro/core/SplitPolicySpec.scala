package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite

/** `SplitPolicy.choose` picks exactly the split of [[SplitPolicyOracle]]. */
class SplitPolicySpec extends AnyFunSuite {

  private def sameSplit(a: Option[SplitInfo], b: Option[SplitInfo]): Boolean = (a, b) match {
    case (None, None) => true
    case (Some(x), Some(y)) =>
      x.vertical == y.vertical && x.routeSeg == y.routeSeg && x.useSd == y.useSd &&
        x.childEnds.sameElements(y.childEnds) &&
        java.lang.Double.doubleToLongBits(x.value) == java.lang.Double.doubleToLongBits(y.value)
    case _ => false
  }

  private def checkAgainstOracle(ends: Array[Int], series: IndexedSeq[Array[Float]]): Boolean = {
    val node = new Node(ends, 0)
    sameSplit(SplitPolicy.choose(node, series), SplitPolicyOracle.choose(node, series))
  }

  /** A leaf: series of one kind and a segmentation of 1–12 segments. */
  private val leaves: Gen[(String, Array[Int], IndexedSeq[Array[Float]])] = for {
    kind <- Gen.oneOf(SeriesGen.Kinds)
    len <- Gen.choose(12, 96)
    segs <- Gen.choose(1, 12)
    cuts <- Gen.pick(segs - 1, 1 until len)
    rho <- Gen.choose(2, 80)
    seed <- Gen.choose(0L, 1000000L)
  } yield (kind, (cuts.sorted :+ len).toArray, SeriesGen.dataset(kind, rho, len, seed).toIndexedSeq)

  test("choose equals the oracle on random leaves of every kind and segmentation") {
    val prop = Prop.forAll(leaves) { case (_, ends, series) => checkAgainstOracle(ends, series) }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status.toString)
  }

  test("identical series give no split, as in the oracle") {
    val s = SeriesGen.dataset("walk", 1, 32, 4)(0)
    val series = IndexedSeq.fill(10)(s.clone)
    assert(SplitPolicy.choose(new Node(Array(8, 20, 32), 0), series).isEmpty)
    assert(checkAgainstOracle(Array(8, 20, 32), series))
  }

  test("two adjacent stat values take the second-distinct-value fallback, as in the oracle") {
    // Means 0.5 and nextUp(0.5): their midrange rounds to 0.5, which leaves
    // the left side empty, so the split value falls back to nextUp(0.5).
    val a = Array(1f, 0f)
    val b = Array(1f, math.pow(2, -52).toFloat)
    val series = IndexedSeq(a, b, a, b, b)
    val node = new Node(Array(2), 0)
    val h = SplitPolicy.choose(node, series)
    assert(h.isDefined)
    assert(checkAgainstOracle(Array(2), series))
    assert(checkAgainstOracle(Array(1, 2), series))
  }
}
