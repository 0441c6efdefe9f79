package repro.baselines

import java.util.concurrent.atomic.AtomicInteger
import repro.core.{Dist, KnnSet, Neighbor, Par, QueryKnobs, QueryStats, SeriesIndex}

/** PSCAN — the paper's parallel UCR-suite variant (§2, §4.1): an optimized
  * sequential scan with squared distances and early abandoning, parallelized
  * over fixed-size blocks with a shared best-so-far set. Stored as a flat
  * LRD-style buffer (double buffering is moot on the in-memory substrate).
  */
final class Pscan(len: Int, lrd: Array[Float], ids: Array[Long]) extends SeriesIndex(len, lrd, ids) {

  def knn(q: Array[Float], knobs: QueryKnobs, stats: QueryStats): Array[Neighbor] =
    knn(q, knobs.k, knobs.threads, stats)

  /** Exact k-NN by early-abandoning parallel scan. */
  def knn(q: Array[Float], k: Int, threads: Int, stats: QueryStats = new QueryStats): Array[Neighbor] = {
    checkQuery(q)
    val results = new KnnSet(k)
    val block = 1024
    val nBlocks = (nSeries + block - 1) / block
    val cursor = new AtomicInteger(0)
    Par.run(math.max(1, threads)) { _ =>
      var b = cursor.getAndIncrement()
      while (b < nBlocks) {
        var i = b * block
        val end = math.min(nSeries, i + block)
        while (i < end) { results.addSync(Dist.ed2Flat(q, lrd, i * len, results.bsfSync), ids(i)); i += 1 }
        b = cursor.getAndIncrement()
      }
    }
    stats.seriesAccessed.addAndGet(nSeries)
    results.toArray
  }
}

object Pscan {

  /** Pack a dataset into the flat scan buffer. */
  def build(ids: Array[Long], data: Array[Array[Float]], len: Int): Pscan =
    new Pscan(len, SeriesIndex.pack(ids, data, len), ids.clone())
}
