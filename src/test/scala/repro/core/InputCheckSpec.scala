package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.baselines.{DSTreeIndex, ParISIndex, Pscan, VAFile}

/** Every method rejects, where they enter, series and queries that are not
  * `seriesLength` finite points, naming the series or point at fault and the
  * expected length.
  */
class InputCheckSpec extends AnyFunSuite {

  private val n = 120
  private val len = 24
  private val cfg = TestUtil.cfg(len, 16)

  /** Each method's build, returning its core k-NN call (k = 3). */
  private val methods: Seq[(String, (Array[Long], Array[Array[Float]]) => Array[Float] => Array[Neighbor])] = Seq(
    "hercules" -> { (ids, data) => val i = HerculesIndex.build(ids, data, cfg); q => i.knn(q, QueryKnobs(k = 3)) },
    "dstree" -> { (ids, data) => val i = DSTreeIndex.build(ids, data, cfg); q => i.knn(q, 3) },
    "paris" -> { (ids, data) => val i = ParISIndex.build(ids, data, cfg); q => i.knn(q, 3, 2) },
    "vafile" -> { (ids, data) => val i = VAFile.build(ids, data, len); q => i.knn(q, 3) },
    "pscan" -> { (ids, data) => val i = Pscan.build(ids, data, len); q => i.knn(q, 3, 2) },
  )

  private def dataset() = TestUtil.dataset(n, len, 41)

  for ((name, build) <- methods) {
    test(s"$name rejects a query of the wrong length") {
      val (ids, data) = dataset()
      val knn = build(ids, data)
      TestUtil.assertRejected("query has 20 points", s"expected $len")(knn(data(0).take(20)))
      TestUtil.assertRejected("query has 30 points", s"expected $len")(knn(data(0) ++ data(1).take(6)))
      TestUtil.assertExact(ids, data, data(3), 3, knn(data(3)), name)
    }

    test(s"$name rejects a query with a NaN or infinite point") {
      val (ids, data) = dataset()
      val knn = build(ids, data)
      for ((bad, at) <- Seq((Float.NaN, 5), (Float.PositiveInfinity, 0), (Float.NegativeInfinity, len - 1))) {
        val q = data(2).clone()
        q(at) = bad
        TestUtil.assertRejected("query", s"$bad at point $at", s"expected $len finite points")(knn(q))
      }
    }

    test(s"$name rejects a series of the wrong length") {
      val (ids, data) = dataset()
      data(7) = data(7).take(20)
      TestUtil.assertRejected("series 7 (id 7) has 20 points", s"expected $len")(build(ids, data))
    }

    test(s"$name rejects a series with a NaN point") {
      val (ids, data) = dataset()
      data(9)(3) = Float.NaN
      TestUtil.assertRejected("series 9 (id 9)", "NaN at point 3", s"expected $len finite points")(build(ids, data))
    }
  }
}
