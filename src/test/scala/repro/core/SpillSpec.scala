package repro.core

import java.io.IOException
import java.nio.file.{Files, Path, Paths, StandardOpenOption}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** Spill files: bit-exact round trips, loud failures on lost data, and no
  * spill directory left behind.
  */
class SpillSpec extends AnyFunSuite {

  private val len = 32
  private val (ids, data) = TestUtil.dataset(40, len, 7)

  /** A one-worker tree and store; the root leaf splits at its 40th series. */
  private def fresh(): (HerculesTree, SeriesStore) = {
    val cfg = TestUtil.cfg(len, leaf = 40).copy(hbufferSlots = 96, flushThreshold = 1)
    (new HerculesTree(cfg), SeriesStore.create(len, 1, cfg.hbufferSlots, 1))
  }

  private def insert(tree: HerculesTree, store: SeriesStore, range: Range): Unit =
    range.foreach(i => tree.insertConcurrent(ids(i), data(i), 0, store))

  private def assertRecords(actual: collection.Seq[(Long, Array[Float])], expected: Seq[Int]): Unit = {
    assert(actual.map(_._1) == expected.map(ids(_)))
    actual.zip(expected).foreach { case ((_, s), i) =>
      assert(s.map(java.lang.Float.floatToRawIntBits).toSeq ==
        data(i).map(java.lang.Float.floatToRawIntBits).toSeq, s"series ${ids(i)}")
    }
  }

  private def spillDirs(): Set[Path] = {
    val tmp = Files.list(Paths.get(System.getProperty("java.io.tmpdir")))
    try tmp.toArray.map(_.asInstanceOf[Path]).filter(_.getFileName.toString.startsWith("hercules-spill-")).toSet
    finally tmp.close()
  }

  test("readSpill returns every record in append order after two flushes and a split") {
    val (tree, store) = fresh()
    try {
      insert(tree, store, 0 until 15)
      store.flushAll(tree.root)
      insert(tree, store, 15 until 30)
      store.flushAll(tree.root)
      assertRecords(store.readSpill(tree.root), 0 until 30)
      // On disk: per record a big-endian id, then the big-endian floats.
      val layout = new java.io.ByteArrayOutputStream
      val out = new java.io.DataOutputStream(layout)
      (0 until 30).foreach { i => out.writeLong(ids(i)); data(i).foreach(out.writeFloat) }
      assert(Files.readAllBytes(tree.root.spillFile).sameElements(layout.toByteArray))
      insert(tree, store, 30 until 40)
      assert(!tree.root.isLeaf, "the root should have split")
      val policy = tree.root.split
      val (toLeft, toRight) = (0 until 30).partition(i => policy.goesLeft(data(i)))
      assertRecords(store.readSpill(tree.root.left), toLeft)
      assertRecords(store.readSpill(tree.root.right), toRight)
      assert(tree.root.left.count + tree.root.right.count == 40)
    } finally store.release()
  }

  private def injectAfterFlush(damage: Path => Unit)(next: (HerculesTree, SeriesStore) => Unit): IOException = {
    val (tree, store) = fresh()
    insert(tree, store, 0 until 15)
    store.flushAll(tree.root)
    val path = tree.root.spillFile
    damage(path)
    val e = try intercept[IOException](next(tree, store)) finally store.release()
    assert(e.getMessage.contains(s"leaf ${tree.root.id}"), e.getMessage)
    assert(e.getMessage.contains(path.toString), e.getMessage)
    assert(e.getMessage.contains(s"expected ${15L * (8 + 4 * len)} bytes"), e.getMessage)
    e
  }

  private def delete(p: Path): Unit = Files.delete(p)
  private def truncate(p: Path): Unit = {
    val ch = Files.newByteChannel(p, StandardOpenOption.WRITE)
    try ch.truncate(Files.size(p) - 3) finally ch.close()
  }

  test("a deleted spill file fails the next split loudly") {
    val e = injectAfterFlush(delete)((tree, store) => insert(tree, store, 15 until 40))
    assert(e.getMessage.contains("found no file"), e.getMessage)
  }

  test("a truncated spill file fails the next split loudly") {
    val e = injectAfterFlush(truncate)((tree, store) => insert(tree, store, 15 until 40))
    assert(e.getMessage.contains(s"found ${15L * (8 + 4 * len) - 3} bytes"), e.getMessage)
  }

  test("a deleted spill file fails index writing loudly") {
    injectAfterFlush(delete)((tree, store) => IndexWriter.write(tree, store))
  }

  test("a deleted spill file fails index writing loudly (3 threads)") {
    injectAfterFlush(delete) { (tree, store) =>
      val dir = tree.root.spillFile.getParent
      try IndexWriter.write(tree, store, threads = 3)
      finally assert(!Files.exists(dir), "the spill directory outlived the failed write")
    }
  }

  test("a truncated spill file fails index writing loudly") {
    injectAfterFlush(truncate)((tree, store) => IndexWriter.write(tree, store))
  }

  test("no spill directory remains after a spilling build") {
    val cfg = TestUtil.cfg(32, 8, 3).copy(dbSize = 24, hbufferSlots = 96, flushThreshold = 1)
    val (bIds, bData) = TestUtil.dataset(600, 32, 99)
    val (tree, store) = new ParallelBuilder(cfg, BuildMode.Hercules).build(bIds, bData)
    val spilled = tree.root.leavesInorder.filter(_.spilledCount > 0)
    assert(spilled.nonEmpty, "the build should spill")
    val dir = spilled.head.spillFile.getParent
    assert(Files.isDirectory(dir))
    IndexWriter.write(tree, store, threads = 3)
    assert(!Files.exists(dir))
  }

  for (threads <- Seq(1, 3)) {
    val name = "no spill directory remains after a failed build" + (if (threads == 1) "" else s" ($threads workers)")
    test(name) {
      val before = spillDirs()
      val cfg = TestUtil.cfg(32, 8, threads).copy(dbSize = 16, hbufferSlots = 32, flushThreshold = 1)
      val (bIds, bData) = TestUtil.dataset(200, 32, 5)
      bData(150) = new Array[Float](31) // fails the build when read, long after the first flush
      val e = intercept[IllegalArgumentException] {
        TestUtil.withinSeconds(30)(new ParallelBuilder(cfg, BuildMode.Hercules).build(bIds, bData))
      }
      assert(e.getMessage.contains("series 150 (id 150) has 31 points, expected 32"), e.getMessage)
      assert(spillDirs() == before)
    }
  }

  test("a build that never spills creates no spill directory") {
    val before = spillDirs()
    val (bIds, bData) = TestUtil.dataset(300, 32, 3)
    new ParallelBuilder(TestUtil.cfg(32, 8), BuildMode.Hercules).build(bIds, bData)
    assert(spillDirs() == before)
  }
}
