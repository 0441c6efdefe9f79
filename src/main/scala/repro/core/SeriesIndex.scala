package repro.core

/** The flat raw-series store every method answers from: `ids.length` series
  * of `len` floats each, back to back in scan order (Hercules's LRDFile, the
  * baselines' raw files — paper §2, §3.3.3). It owns the checks on what
  * enters an index and the early-abandoning range scan all methods share.
  */
abstract class SeriesIndex(val len: Int, val lrd: Array[Float], val ids: Array[Long]) extends Serializable {

  /** Series stored. */
  def nSeries: Int = ids.length

  /** Exact k-NN of `q` under `knobs` (the method reads what it uses); fills
    * `stats`.
    */
  def knn(q: Array[Float], knobs: QueryKnobs, stats: QueryStats): Array[Neighbor]

  /** Reject a query that is not `len` finite points. */
  final def checkQuery(q: Array[Float]): Unit = SeriesIndex.checkSeries("query", q, len)

  /** Scan the series at positions `[from, until)` into `results`, each
    * distance early-abandoned against the current bound.
    */
  final def scan(q: Array[Float], from: Int, until: Int, results: KnnSet, stats: QueryStats): Unit = {
    var i = from
    while (i < until) { results.add(Dist.ed2Flat(q, lrd, i * len, results.bsf), ids(i)); i += 1 }
    stats.seriesAccessed.addAndGet(until - from)
  }
}

object SeriesIndex {

  /** Reject the dataset unless there is one id per series and every series at
    * positions `[from, until)` is `len` finite points.
    */
  def checkRows(ids: Array[Long], data: Array[Array[Float]], len: Int, from: Int, until: Int): Unit = {
    require(ids.length == data.length, s"${ids.length} ids for ${data.length} series")
    var i = from
    while (i < until) { checkSeries(s"series $i (id ${ids(i)})", data(i), len); i += 1 }
  }

  /** Check the dataset with [[checkRows]] and pack it into one flat array in
    * input order.
    */
  def pack(ids: Array[Long], data: Array[Array[Float]], len: Int): Array[Float] = {
    checkRows(ids, data, len, 0, data.length)
    val flat = new Array[Float](data.length * len)
    var i = 0
    while (i < data.length) { System.arraycopy(data(i), 0, flat, i * len, len); i += 1 }
    flat
  }

  private def checkSeries(what: => String, s: Array[Float], len: Int): Unit = {
    if (s.length != len)
      throw new IllegalArgumentException(s"$what has ${s.length} points, expected $len")
    var j = 0
    while (j < len) {
      if (!java.lang.Float.isFinite(s(j)))
        throw new IllegalArgumentException(s"$what has ${s(j)} at point $j, expected $len finite points")
      j += 1
    }
  }
}
