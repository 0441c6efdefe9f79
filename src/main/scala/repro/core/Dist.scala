package repro.core

/** Euclidean distance kernels.
  *
  * The paper uses hand-written SIMD; here tight scalar loops rely on JIT
  * auto-vectorization — a constant factor shared by every compared method
  * (DESIGN.md §3). Both kernels work on *squared* distances, and the
  * early-abandoning one stops as soon as the partial sum exceeds the
  * best-so-far bound (UCR-suite optimization, used by all methods).
  */
object Dist {

  /** Squared Euclidean distance between two series. */
  def ed2(a: Array[Float], b: Array[Float]): Double = {
    var i = 0
    var acc = 0.0
    while (i < a.length) { val d = a(i).toDouble - b(i); acc += d * d; i += 1 }
    acc
  }

  /** Squared ED between `q` and the series stored at `flat[off, off+len)`,
    * early-abandoning against `bound` after every full 16-point block. Sums
    * in the same order as [[ed2]], so a result that is not abandoned equals
    * it bit for bit.
    */
  def ed2Flat(q: Array[Float], flat: Array[Float], off: Int, bound: Double): Double = {
    val n = q.length
    val blocked = n - n % 16
    var i = 0
    var acc = 0.0
    while (i < blocked) {
      var j = 0
      while (j < 16) { val d = q(i + j).toDouble - flat(off + i + j); acc += d * d; j += 1 }
      i += 16
      if (acc > bound) return acc
    }
    while (i < n) { val d = q(i).toDouble - flat(off + i); acc += d * d; i += 1 }
    acc
  }
}
