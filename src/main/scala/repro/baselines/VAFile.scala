package repro.baselines

import repro.core.{Dist, KnnSet, Neighbor, QueryKnobs, QueryStats, SeriesIndex}

/** VA+file baseline (§2): a skip-sequential filter file over a 16-dimension
  * real-DFT transform of each series, with per-dimension equi-depth scalar
  * quantization (8 bits). Query answering computes a per-series cell lower
  * bound and refines survivors in file order with early abandoning.
  *
  * The transform projects onto the orthonormal real Fourier basis
  * `{1/√n, √(2/n)·cos(2πkj/n), √(2/n)·sin(2πkj/n)}`, so the distance over
  * the kept dimensions lower-bounds the full Euclidean distance; the cell
  * gap lower-bounds that in turn. Substitution (DESIGN.md): the BSF is
  * seeded by refining the first 256 series instead of from cell *upper*
  * bounds (which need all dimensions quantized); single-threaded, as the
  * paper classes VA+file as the best skip-sequential (not parallel) method.
  */
final class VAFile(
    len: Int,
    lrd: Array[Float],
    ids: Array[Long],
    val dims: Int,
    val boundaries: Array[Array[Double]], // per dim: cells+1 edges (±∞ at ends)
    val cells: Array[Byte],               // per series × dim: cell index
) extends SeriesIndex(len, lrd, ids) {

  def knn(q: Array[Float], knobs: QueryKnobs, stats: QueryStats): Array[Neighbor] = knn(q, knobs.k, stats)

  /** Exact k-NN: seed BSF, then filter + refine skip-sequentially. */
  def knn(q: Array[Float], k: Int, stats: QueryStats = new QueryStats): Array[Neighbor] = {
    checkQuery(q)
    val results = new KnnSet(k)
    val qf = VAFile.transform(q, dims)
    val seed = math.min(256, nSeries)
    scan(q, 0, seed, results, stats)
    var accessed = 0L
    var i = 0
    while (i < nSeries) {
      var lb2 = 0.0
      var d = 0
      val base = i * dims
      while (d < dims) {
        val c = cells(base + d) & 0xff
        val lo = boundaries(d)(c)
        val hi = boundaries(d)(c + 1)
        val v = qf(d)
        val gap = if (v < lo) lo - v else if (v > hi) v - hi else 0.0
        lb2 += gap * gap
        d += 1
      }
      if (lb2 < results.bsf && i >= seed) {
        val dist = Dist.ed2Flat(q, lrd, i * len, results.bsf)
        accessed += 1
        results.add(dist, ids(i))
      }
      i += 1
    }
    stats.seriesAccessed.addAndGet(accessed)
    results.toArray
  }
}

object VAFile {
  /** Quantization cells per dimension (8 bits, as 16 symbols × 16 dims ≈
    * the same summary budget as iSAX 16×256).
    */
  val CellsPerDim = 256

  /** Orthonormal real-DFT features (c0, a1, b1, a2, b2, …) padded with zeros
    * when the series is too short for a harmonic (`2k < n` required).
    */
  def transform(s: Array[Float], dims: Int): Array[Double] = {
    val n = s.length
    val out = new Array[Double](dims)
    var sum = 0.0
    var j = 0
    while (j < n) { sum += s(j); j += 1 }
    out(0) = sum / math.sqrt(n)
    var d = 1
    var k = 1
    val scale = math.sqrt(2.0 / n)
    while (d < dims && 2 * k < n) {
      var a = 0.0
      var b = 0.0
      val w = 2.0 * math.Pi * k / n
      j = 0
      while (j < n) { a += s(j) * math.cos(w * j); b += s(j) * math.sin(w * j); j += 1 }
      out(d) = a * scale
      if (d + 1 < dims) out(d + 1) = b * scale
      d += 2
      k += 1
    }
    out
  }

  /** Build the VA+file: transform, fit equi-depth boundaries, quantize. */
  def build(idsIn: Array[Long], data: Array[Array[Float]], len: Int, dims: Int = 16): VAFile = {
    val lrd = SeriesIndex.pack(idsIn, data, len)
    val n = data.length
    val feats = data.flatMap(transform(_, dims))
    val cells = math.min(CellsPerDim, math.max(2, n))
    val boundaries = Array.tabulate(dims) { d =>
      val col = new Array[Double](n)
      var r = 0
      while (r < n) { col(r) = feats(r * dims + d); r += 1 }
      java.util.Arrays.sort(col)
      val edges = new Array[Double](cells + 1)
      edges(0) = Double.NegativeInfinity
      edges(cells) = Double.PositiveInfinity
      var c = 1
      while (c < cells) { edges(c) = col((c.toLong * n / cells).toInt); c += 1 }
      edges
    }
    val cellIdx = new Array[Byte](n * dims)
    var i = 0
    while (i < n) {
      var d = 0
      while (d < dims) {
        val v = feats(i * dims + d)
        val edges = boundaries(d)
        // cell c such that edges(c) <= v <= edges(c+1)
        var lo = 0
        var hi = cells - 1
        while (lo < hi) {
          val mid = (lo + hi + 1) >>> 1
          if (edges(mid) <= v) lo = mid else hi = mid - 1
        }
        cellIdx(i * dims + d) = lo.toByte
        d += 1
      }
      i += 1
    }
    new VAFile(len, lrd, idsIn.clone(), dims, boundaries, cellIdx)
  }
}
