package repro.core

import java.util.concurrent.CyclicBarrier
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

/** Index building (§3.3, Algorithms 1–4).
  *
  * The coordinator cuts the input into DBuffer chunks of `cfg.dbSize` series
  * and alternates the two buffer parts; InsertWorkers claim series with a
  * fetch-add cursor and insert them under Algorithm 5. A worker whose HBuffer
  * region cannot absorb a full chunk skips the chunk and raises the flush
  * counter. At the end-of-chunk barrier, one thread alone (the
  * FlushCoordinator — here the barrier action, all other parties parked)
  * decides whether to flush, spills every leaf's buffered series to its spill
  * file, and single-threadedly inserts any series left unclaimed.
  *
  * Deviation from the paper (noted in DESIGN.md): the paper uses two barriers
  * so the read coordinator never blocks during a flush; merging them into one
  * barrier round makes the coordinator idle during flushes but preserves the
  * protocol's structure (single flusher, workers parked, per-chunk cadence).
  * The "file" being read is an in-memory array — the read phase is the
  * substitution for raw-file I/O.
  */
final class ParallelBuilder(cfg: IndexConfig, mode: BuildMode) {

  /** Build the tree over `(ids, data)`; returns the tree plus the HBuffer
    * (still holding unflushed leaf data — the IndexWriter consumes it). Each
    * row is checked with [[SeriesIndex.checkRows]] as it is read, so a bad
    * row fails the build with an `IllegalArgumentException`.
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
    val n = data.length
    if (workers == 1) {
      var i = 0
      while (i < n) {
        SeriesIndex.checkRows(ids, data, cfg.seriesLength, i, i + 1)
        if (store.freeSlots(0) == 0) store.flushAll(tree.root)
        mode match {
          case BuildMode.Sequential => tree.insertSequential(ids(i), data(i), store)
          case _                    => tree.insertConcurrent(ids(i), data(i), 0, store)
        }
        i += 1
      }
      return
    }

    // Shared chunk state; published across rounds by the barrier.
    val chunkStart = Array(0, 0)
    val chunkLen = Array(0, 0)
    val finished = Array(false, false)
    val cursors = Array(new AtomicInteger(0), new AtomicInteger(0))
    val flushCounter = new AtomicInteger(0)
    @volatile var failure: Throwable = null
    var actionToggle = 0 // only touched inside the barrier action
    var next = 0 // first series not yet read; only touched by the coordinator

    // Read the next chunk into part `p` (Algorithm 1's read phase), checking
    // its rows. A bad row ends the input: the workers finish the chunk in
    // hand and stop, and the build throws.
    def fill(p: Int): Unit = {
      val len = math.min(dbSize, n - next)
      if (len > 0 && failure == null)
        try SeriesIndex.checkRows(ids, data, cfg.seriesLength, next, next + len)
        catch { case e: IllegalArgumentException => failure = e }
      finished(p) = len == 0 || failure != null
      chunkStart(p) = next
      chunkLen(p) = len
      cursors(p).set(0)
      next += len
    }

    def insertOne(i: Int, w: Int): Unit = mode match {
      case BuildMode.PathLocked => tree.insertPathLocked(ids(i), data(i), w, store)
      case _                    => tree.insertConcurrent(ids(i), data(i), w, store)
    }

    val barrier: CyclicBarrier = new CyclicBarrier(workers + 1, () => {
      val t = actionToggle
      val len = chunkLen(t)
      val consumed = cursors(t).get() >= len
      if (flushCounter.get() >= cfg.flushThreshold || (!consumed && flushCounter.get() > 0)) {
        store.flushAll(tree.root)
        flushCounter.set(0)
      }
      // Catch up series skipped by full workers: regions were just emptied,
      // and one chunk always fits one region (SeriesStore.create guarantee).
      var pos = cursors(t).getAndIncrement()
      while (pos < len) { insertOne(chunkStart(t) + pos, 0); pos = cursors(t).getAndIncrement() }
      actionToggle ^= 1
    })

    def workerLoop(w: Int): Unit = {
      var toggle = 0
      while (!finished(toggle)) {
        val len = chunkLen(toggle)
        if (store.freeSlots(w) >= len) {
          var pos = cursors(toggle).getAndIncrement()
          while (pos < len) { insertOne(chunkStart(toggle) + pos, w); pos = cursors(toggle).getAndIncrement() }
        } else flushCounter.incrementAndGet()
        barrier.await()
        toggle ^= 1
      }
    }

    fill(0) // Algorithm 1 line 15

    val threads = (0 until workers).map { w =>
      val th = new Thread(() =>
        try workerLoop(w)
        catch { case e: Throwable => if (failure == null) failure = e; barrier.reset() },
        s"insert-worker-$w")
      th.start()
      th
    }

    var toggle = 0
    try {
      while (!finished(toggle)) {
        fill(1 - toggle)
        barrier.await()
        toggle ^= 1
      }
    } catch {
      case e: java.util.concurrent.BrokenBarrierException =>
        if (failure == null) throw e
    }
    threads.foreach(_.join())
    if (failure != null) throw failure
  }
}
