package repro.core

import java.util.concurrent.atomic.AtomicInteger

/** How inserts synchronize — the three build strategies of the ablation
  * study (Fig. 12a).
  */
sealed trait BuildMode extends Serializable
object BuildMode {
  /** Hercules: concurrent inserts, leaf-only locking, synopses deferred. */
  case object Hercules extends BuildMode
  /** DSTree*P: concurrent inserts locking the whole root-to-leaf path. */
  case object PathLocked extends BuildMode
  /** DSTree*: single-threaded inserts updating path synopses inline. */
  case object Sequential extends BuildMode
}

/** Index building (§3.3, Algorithms 1–4) as one per-chunk fork-join loop,
  * the same for every worker count and [[BuildMode]].
  *
  * The input is cut into DBuffer chunks of `cfg.dbSize` series. Per chunk,
  * the calling thread checks the rows with [[SeriesIndex.checkRows]], then
  * forks the InsertWorkers with [[Par.run]]: each claims series with a
  * fetch-add cursor and inserts them under Algorithm 5, or, when its HBuffer
  * region cannot absorb the whole chunk, skips it and raises the flush
  * counter. Once every worker has returned, the calling thread alone is the
  * FlushCoordinator: it flushes when the counter reaches `cfg.flushThreshold`
  * (or the chunk is unconsumed and the counter is non-zero), then inserts
  * any series left unclaimed into region 0.
  *
  * Deviation from the paper (noted in DESIGN.md): there is no read-ahead of
  * the next chunk while the workers insert, because the "read" is an
  * in-memory row check; the protocol keeps a single flusher, workers joined
  * during flushes, and the per-chunk cadence.
  */
final class ParallelBuilder(cfg: IndexConfig, mode: BuildMode) {

  /** Build the tree over `(ids, data)`; returns the tree plus the HBuffer
    * (still holding unflushed leaf data — the IndexWriter consumes it). Each
    * chunk's rows are checked before they are inserted, so a bad row fails
    * the build with an `IllegalArgumentException`; a failing worker fails it
    * with its own exception once the other workers have returned.
    */
  def build(ids: Array[Long], data: Array[Array[Float]]): (HerculesTree, SeriesStore) = {
    val n = data.length
    val tree = new HerculesTree(cfg)
    val workers = if (mode == BuildMode.Sequential) 1 else math.max(1, cfg.buildThreads)
    val dbSize = math.max(1, math.min(cfg.dbSize, math.max(1, n)))
    val totalSlots = if (cfg.hbufferSlots > 0) cfg.hbufferSlots else n + dbSize
    val store = SeriesStore.create(cfg.seriesLength, workers, totalSlots, dbSize)
    try insertAll(tree, store, ids, data, workers, dbSize)
    catch { case e: Throwable => store.release(); throw e }
    (tree, store)
  }

  /** Insert every series; on failure the caller releases the store. */
  private def insertAll(tree: HerculesTree, store: SeriesStore, ids: Array[Long],
                        data: Array[Array[Float]], workers: Int, dbSize: Int): Unit = {
    def insertOne(i: Int, w: Int): Unit = mode match {
      case BuildMode.Hercules   => tree.insertConcurrent(ids(i), data(i), w, store)
      case BuildMode.PathLocked => tree.insertPathLocked(ids(i), data(i), w, store)
      case BuildMode.Sequential => tree.insertSequential(ids(i), data(i), store)
    }

    val cursor = new AtomicInteger
    val flushCounter = new AtomicInteger
    for (start <- 0 until data.length by dbSize) {
      val len = math.min(dbSize, data.length - start)
      SeriesIndex.checkRows(ids, data, cfg.seriesLength, start, start + len)
      cursor.set(0)
      Par.run(workers) { w =>
        if (store.freeSlots(w) >= len) {
          var pos = cursor.getAndIncrement()
          while (pos < len) { insertOne(start + pos, w); pos = cursor.getAndIncrement() }
        } else flushCounter.incrementAndGet()
      }
      if (flushCounter.get() >= cfg.flushThreshold || (cursor.get() < len && flushCounter.get() > 0)) {
        store.flushAll(tree.root)
        flushCounter.set(0)
      }
      // Series skipped by full workers: regions were just emptied, and one
      // chunk always fits one region (SeriesStore.create guarantee).
      var pos = cursor.getAndIncrement()
      while (pos < len) { insertOne(start + pos, 0); pos = cursor.getAndIncrement() }
    }
  }
}
