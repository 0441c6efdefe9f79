package repro.spark

import java.io.{BufferedInputStream, BufferedOutputStream, FileInputStream, FileOutputStream, ObjectInputStream, ObjectOutputStream}
import java.nio.file.Path
import repro.baselines.{DSTreeIndex, ParISIndex, Pscan, VAFile}
import repro.core.{HerculesIndex, IndexConfig, SeriesIndex}

/** One partition's self-contained similarity-search structure — the unit the
  * paper's single-node methods map onto under the per-partition Spark design
  * (DESIGN.md §2) — and its wall-clock build time in ms. `index.knn` is exact
  * within the partition, so the driver-side top-k merge is exact globally.
  */
final case class LocalIndex(index: SeriesIndex, buildMs: Double) {
  /** Write this index to `path` as one Java-serialized object. */
  def save(path: Path): Unit = {
    val out = new ObjectOutputStream(new BufferedOutputStream(new FileOutputStream(path.toFile)))
    try out.writeObject(this)
    finally out.close()
  }
}

object LocalIndex {
  /** Method names accepted by [[build]] (and the benches/jobs). */
  val Methods: Seq[String] = Seq("hercules", "dstree", "paris", "vafile", "pscan")

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

  /** Read an index written by [[LocalIndex.save]]. */
  def load(path: Path): LocalIndex = {
    val in = new ObjectInputStream(new BufferedInputStream(new FileInputStream(path.toFile)))
    try in.readObject().asInstanceOf[LocalIndex]
    finally in.close()
  }
}
