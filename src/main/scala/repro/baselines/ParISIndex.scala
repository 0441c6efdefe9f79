package repro.baselines

import java.util.concurrent.atomic.AtomicInteger
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import repro.core._

/** ParIS+ baseline (§2): the iSAX-family multi-core index.
  *
  * Build is summary-only (the raw data is touched once to compute iSAX
  * words), which is why ParIS+ builds an order of magnitude faster than
  * EAPCA trees. Query answering follows the parallel ADS+SIMS algorithm: an
  * approximate answer from the query's root subtree, then a parallel scan of
  * *all* iSAX words with `LB_SAX`, then refinement of the survivors in file
  * order. The raw file keeps insertion order (ParIS+ has no leaf-clustered
  * LRDFile) — neighbors are scattered, which is what degrades it on hard
  * workloads and large k (Fig. 10/11).
  *
  * Simplification (DESIGN.md): root subtrees are the 2^segments top-bit
  * groups without the deeper variable-cardinality split hierarchy; query-time
  * behaviour is dominated by the flat summary scan + skip-sequential refine,
  * which are implemented faithfully.
  */
final class ParISIndex(
    len: Int,
    lrd: Array[Float],
    ids: Array[Long],
    val lsd: Array[Byte],
    val isax: ISax,
    val groups: Map[Int, Array[Int]],
) extends SeriesIndex(len, lrd, ids) {

  def knn(q: Array[Float], knobs: QueryKnobs, stats: QueryStats): Array[Neighbor] =
    knn(q, knobs.k, knobs.threads, stats)

  /** Exact k-NN via parallel SIMS (summary scan + file-order refinement). */
  def knn(q: Array[Float], k: Int, threads: Int, stats: QueryStats = new QueryStats): Array[Neighbor] = {
    checkQuery(q)
    val results = new KnnSet(k)
    val paaQ = isax.paa(q)
    val qKey = ParISIndex.keyOf(isax.word(q))

    // Approximate answer from the query's root subtree (nearest non-empty
    // group by Hamming distance on the top bits when the exact one is empty).
    val group = groups.getOrElse(qKey,
      groups.minByOption { case (key, _) => Integer.bitCount(key ^ qKey) }.map(_._2).getOrElse(Array.empty[Int]))
    val cap = math.min(group.length, 4096)
    var i = 0
    while (i < cap) {
      val posI = group(i)
      results.add(Dist.ed2Flat(q, lrd, posI * len, results.bsf), ids(posI))
      i += 1
    }
    stats.seriesAccessed.addAndGet(cap)

    // SIMS filtering: parallel LB_SAX over every summary in LSDFile.
    val t = math.max(1, threads)
    val locals = Array.fill(t)(new ArrayBuffer[(Int, Double)])
    val block = 4096
    val nBlocks = (nSeries + block - 1) / block
    val cursor = new AtomicInteger(0)
    Par.run(t) { tid =>
      var checked = 0L
      var b = cursor.getAndIncrement()
      while (b < nBlocks) {
        val bound = results.bsfSync
        var j = b * block
        val end = math.min(nSeries, j + block)
        while (j < end) {
          val lb2 = isax.lbSax2(paaQ, lsd, j * isax.segments)
          checked += 1
          if (lb2 < bound) locals(tid) += ((j, lb2))
          j += 1
        }
        b = cursor.getAndIncrement()
      }
      stats.saxChecked.addAndGet(checked)
    }
    val candidates = locals.iterator.flatten.toArray.sortBy(_._1)
    stats.candidateSeries = candidates.length

    // Refinement in file order (parallel chunks, shared BSF).
    val chunk = math.max(1, (candidates.length + t - 1) / t)
    Par.run(t) { tid =>
      var accessed = 0L
      var j = tid * chunk
      val end = math.min(candidates.length, j + chunk)
      while (j < end) {
        val (posJ, lb2) = candidates(j)
        if (lb2 < results.bsfSync) {
          val d = Dist.ed2Flat(q, lrd, posJ * len, results.bsfSync)
          accessed += 1
          results.addSync(d, ids(posJ))
        }
        j += 1
      }
      stats.seriesAccessed.addAndGet(accessed)
    }
    results.toArray
  }
}

object ParISIndex {

  /** Root-subtree key of an iSAX word: the top bit of every symbol. */
  private def keyOf(word: Array[Byte]): Int = {
    var key = 0
    var i = 0
    while (i < word.length) {
      key = (key << 1) | ((word(i) & 0x80) >>> 7)
      i += 1
    }
    key
  }

  /** Build: one pass computing iSAX words + top-bit root-subtree grouping. */
  def build(idsIn: Array[Long], data: Array[Array[Float]], cfg: IndexConfig): ParISIndex = {
    val lrd = SeriesIndex.pack(idsIn, data, cfg.seriesLength)
    val isax = ISax(cfg)
    val n = data.length
    val lsd = new Array[Byte](n * isax.segments)
    val grouped = new java.util.HashMap[Int, ArrayBuffer[Int]]
    var i = 0
    while (i < n) {
      val w = isax.word(data(i))
      System.arraycopy(w, 0, lsd, i * isax.segments, isax.segments)
      grouped.computeIfAbsent(keyOf(w), _ => new ArrayBuffer[Int]) += i
      i += 1
    }
    val groups = grouped.asScala.iterator.map { case (k, v) => k -> v.toArray }.toMap
    new ParISIndex(cfg.seriesLength, lrd, idsIn.clone(), lsd, isax, groups)
  }
}
