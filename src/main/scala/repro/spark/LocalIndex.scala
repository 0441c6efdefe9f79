package repro.spark

import java.io._
import java.nio.file.{Files, Path}
import java.util.zip.{CRC32C, CheckedInputStream, CheckedOutputStream}
import repro.baselines.{DSTreeIndex, ParISIndex, Pscan, VAFile}
import repro.core.{HerculesIndex, IndexConfig, SeriesIndex}

/** One partition's self-contained similarity-search structure — the unit the
  * paper's single-node methods map onto under the per-partition Spark design
  * (DESIGN.md §2) — and its wall-clock build time in ms. `index.knn` is exact
  * within the partition, so the driver-side top-k merge is exact globally.
  */
final case class LocalIndex(index: SeriesIndex, buildMs: Double) {

  /** Write this index to `path`: a [[LocalIndex.Header]] and the
    * Java-serialized object, then their byte length and CRC32C.
    */
  def save(path: Path): Unit = {
    val file = new BufferedOutputStream(new FileOutputStream(path.toFile))
    try {
      val crc = new CRC32C
      val out = new DataOutputStream(new CheckedOutputStream(file, crc)) // counts the bytes
      out.writeInt(LocalIndex.Magic)
      out.writeInt(LocalIndex.Version)
      out.writeUTF(index.getClass.getName)
      out.writeInt(index.len)
      out.writeInt(index.nSeries)
      val obj = new ObjectOutputStream(out)
      obj.writeObject(this)
      obj.flush()
      val trailer = new DataOutputStream(file)
      trailer.writeLong(out.size)
      trailer.writeInt(crc.getValue.toInt)
    } finally file.close()
  }
}

object LocalIndex {
  /** Method names accepted by [[build]] (and the benches/jobs). */
  val Methods: Seq[String] = Seq("hercules", "dstree", "paris", "vafile", "pscan")

  private val Magic = 0x48524358 // "HRCX"
  private val Version = 1

  /** What a saved index file says about itself before its payload. */
  final case class Header(indexClass: String, len: Int, nSeries: Int)

  /** Build one partition's structure for `method` over materialized series. */
  def build(method: String, ids: Array[Long], data: Array[Array[Float]], cfg: IndexConfig): LocalIndex = {
    val t0 = System.nanoTime()
    val index = method match {
      case "hercules" => HerculesIndex.build(ids, data, cfg)
      case "dstree"   => DSTreeIndex.build(ids, data, cfg)
      case "paris"    => ParISIndex.build(ids, data, cfg)
      case "vafile"   => VAFile.build(ids, data, cfg.seriesLength)
      case "pscan"    => Pscan.build(ids, data, cfg.seriesLength)
      case other      => throw new IllegalArgumentException(s"unknown method: $other")
    }
    LocalIndex(index, (System.nanoTime() - t0) / 1e6)
  }

  /** Read the header of an index file written by [[LocalIndex.save]].
    *
    * @throws IOException naming `path` on a wrong magic or version, or a
    *                     file too short for its header
    */
  def readHeader(path: Path): Header = {
    val in = new DataInputStream(open(path))
    try readHeader(in, path) finally in.close()
  }

  private def readHeader(in: DataInputStream, path: Path): Header =
    try {
      val magic = in.readInt()
      if (magic != Magic) throw new IOException(f"$path is not an index file (magic 0x$magic%08x)")
      val version = in.readInt()
      if (version != Version)
        throw new IOException(s"$path has index format version $version, expected $Version")
      Header(in.readUTF(), in.readInt(), in.readInt())
    } catch { case e: EOFException => throw new IOException(s"$path is truncated inside its header", e) }

  /** Read an index written by [[LocalIndex.save]]. The file's header, length
    * and checksum are checked in a first pass, before anything is
    * deserialized.
    *
    * @throws IOException naming `path` on a bad header, a truncated file, a
    *                     checksum mismatch, or a payload that cannot be read
    */
  def load(path: Path): LocalIndex = {
    val raw = open(path)
    val crc = new CRC32C
    val checked = new DataInputStream(new CheckedInputStream(raw, crc))
    try {
      val size = raw.available() // the whole file: nothing is read yet
      readHeader(checked, path)
      val buf = new Array[Byte](1 << 16)
      var left = raw.available() - 12
      while (left > 0) { val n = math.min(left, buf.length); checked.readFully(buf, 0, n); left -= n }
      val sum = crc.getValue.toInt
      if (raw.available() != 12 || checked.readLong() != size - 12)
        throw new IOException(s"$path is truncated or damaged: its $size bytes do not match its trailer")
      if (checked.readInt() != sum) throw new IOException(s"$path fails its checksum")
    } finally checked.close()
    val in = new DataInputStream(open(path))
    try {
      readHeader(in, path)
      try new ObjectInputStream(in).readObject().asInstanceOf[LocalIndex]
      catch { case e: Exception => throw new IOException(s"$path: cannot read its index: $e", e) }
    } finally in.close()
  }

  private def open(path: Path): InputStream = new BufferedInputStream(new FileInputStream(path.toFile))
}
