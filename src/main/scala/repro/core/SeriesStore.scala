package repro.core

import java.io.IOException
import java.nio.ByteBuffer
import java.nio.file.{Files, NoSuchFileException, Path, StandardOpenOption}
import scala.collection.mutable.ArrayBuffer

/** The HBuffer of §3.3: one pre-allocated flat float buffer holding the raw
  * series of all leaves, divided into per-worker bump-allocated regions.
  * Leaves reference it through SBuffer slot lists (`Node.slots`); when a
  * flush is ordered, every leaf's buffered series are appended to that leaf's
  * spill file and all regions reset — exactly the paper's two-level scheme.
  *
  * Allocation is region-local (no synchronization); cross-thread visibility
  * of written floats is provided by the leaf lock under which slots are
  * published (writer stores floats, then adds the slot under the lock).
  *
  * A spill file holds records of a big-endian id followed by the series'
  * big-endian floats; each leaf's file is read and written in one call. The
  * spill directory is created on the first flush and removed by [[release]].
  */
final class SeriesStore(
    val seriesLen: Int,
    val numWorkers: Int,
    val regionSlots: Int,
) {
  require(regionSlots >= 1)

  private val recordBytes = 8 + 4 * seriesLen
  private var dir: Path = _

  private val flat = new Array[Float](numWorkers * regionSlots * seriesLen)
  private val slotIds = new Array[Long](numWorkers * regionSlots)
  private val used = new Array[Int](numWorkers)

  /** Remaining slots in worker `w`'s region. */
  def freeSlots(w: Int): Int = regionSlots - used(w)

  /** Copy a series into worker `w`'s region; returns its global slot index. */
  def alloc(w: Int, id: Long, s: Array[Float]): Int = {
    val local = used(w)
    require(local < regionSlots, s"worker $w region overflow")
    used(w) = local + 1
    val slot = w * regionSlots + local
    System.arraycopy(s, 0, flat, slot * seriesLen, seriesLen)
    slotIds(slot) = id
    slot
  }

  /** Materialize the series stored in `slot` (defensive copy). */
  def seriesAt(slot: Int): Array[Float] = {
    val out = new Array[Float](seriesLen)
    System.arraycopy(flat, slot * seriesLen, out, 0, seriesLen)
    out
  }

  /** Original id of the series stored in `slot`. */
  def idAt(slot: Int): Long = slotIds(slot)

  /** Flush every leaf of `root`: append buffered series to the leaf's spill
    * file, clear its SBuffer, then reset all regions. Single-threaded — the
    * FlushCoordinator runs this while all other workers are parked (§3.3.2).
    */
  def flushAll(root: Node): Unit = {
    root.leavesInorder.foreach { leaf =>
      if (leaf.slots != null && leaf.slots.nonEmpty) {
        append(leaf, leaf.slots.length) { buf =>
          leaf.slots.foreach(slot => putRecord(buf, slotIds(slot), flat, slot * seriesLen))
        }
        leaf.slots.clear()
      }
    }
    java.util.Arrays.fill(used, 0)
  }

  /** Append `records` to the leaf's spill file, in order. */
  def appendSpill(leaf: Node, records: collection.Seq[(Long, Array[Float])]): Unit =
    append(leaf, records.length) { buf =>
      records.foreach { case (id, s) => putRecord(buf, id, s, 0) }
    }

  /** Put one spill record: the id, then `seriesLen` floats of `src` from `off`. */
  private def putRecord(buf: ByteBuffer, id: Long, src: Array[Float], off: Int): Unit = {
    buf.putLong(id)
    var i = 0
    while (i < seriesLen) { buf.putFloat(src(off + i)); i += 1 }
  }

  private def append(leaf: Node, n: Int)(put: ByteBuffer => Unit): Unit = {
    val buf = ByteBuffer.allocate(n * recordBytes)
    put(buf)
    Files.write(spillPathFor(leaf), buf.array(), StandardOpenOption.CREATE, StandardOpenOption.APPEND)
    leaf.spilledCount += n
  }

  /** The spill file of a leaf (the directory is created on first use). */
  private def spillPathFor(leaf: Node): Path = {
    if (leaf.spillFile == null) leaf.spillFile = spillDir.resolve(s"leaf-${leaf.id}.bin")
    leaf.spillFile
  }

  /** The spill directory, created on first use; splits of different leaves
    * may ask for it concurrently.
    */
  private def spillDir: Path = synchronized {
    if (dir == null) dir = Files.createTempDirectory("hercules-spill-")
    dir
  }

  /** Read a leaf's spilled records (id, series) in append order.
    *
    * @throws IOException when the spill file is missing or its size does not
    *                     match the leaf's spilled record count
    */
  def readSpill(leaf: Node): ArrayBuffer[(Long, Array[Float])] = {
    val out = new ArrayBuffer[(Long, Array[Float])](leaf.spilledCount)
    if (leaf.spilledCount > 0) {
      val path = spillPathFor(leaf)
      val expected = leaf.spilledCount.toLong * recordBytes
      val bytes = try Files.readAllBytes(path) catch { case _: NoSuchFileException => null }
      if (bytes == null || bytes.length != expected) {
        val found = if (bytes == null) "no file" else s"${bytes.length} bytes"
        throw new IOException(s"spill file of leaf ${leaf.id} ($path): expected $expected bytes " +
          s"for ${leaf.spilledCount} records, found $found")
      }
      val buf = ByteBuffer.wrap(bytes)
      var r = 0
      while (r < leaf.spilledCount) {
        val id = buf.getLong()
        val s = new Array[Float](seriesLen)
        var i = 0
        while (i < seriesLen) { s(i) = buf.getFloat(); i += 1 }
        out += ((id, s))
        r += 1
      }
    }
    out
  }

  /** All series of a leaf: spilled records first, then in-memory slots. */
  def gather(leaf: Node): ArrayBuffer[(Long, Array[Float])] = {
    val out = readSpill(leaf)
    if (leaf.slots != null) leaf.slots.foreach(slot => out += ((idAt(slot), seriesAt(slot))))
    out
  }

  /** Delete a split node's spill file (children got their own). */
  def dropSpill(leaf: Node): Unit = {
    if (leaf.spillFile != null) { Files.deleteIfExists(leaf.spillFile); leaf.spillFile = null }
    leaf.spilledCount = 0
  }

  /** Delete the spill directory and every file left in it. Called once the
    * index is written or the build has failed; spilled records are gone after.
    */
  def release(): Unit = synchronized {
    if (dir != null) {
      val files = Files.list(dir)
      try files.forEach(f => Files.deleteIfExists(f)) finally files.close()
      Files.deleteIfExists(dir)
      dir = null
    }
  }
}

object SeriesStore {

  /** Create a store; its spill directory is made on the first flush.
    *
    * @param totalSlots capacity across all workers; rounded up so each region
    *                   holds at least `minRegion` series (the DBuffer chunk —
    *                   Algorithm 2's "at least DBSize empty slots" check needs
    *                   regions that can absorb one full chunk).
    */
  def create(seriesLen: Int, numWorkers: Int, totalSlots: Int, minRegion: Int): SeriesStore = {
    val region = math.max(minRegion, (totalSlots + numWorkers - 1) / numWorkers)
    new SeriesStore(seriesLen, numWorkers, region)
  }
}
