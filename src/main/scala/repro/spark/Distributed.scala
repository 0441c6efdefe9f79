package repro.spark

import java.nio.file.{Files, Paths}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core.{IndexConfig, KnnSet, Neighbor, QueryKnobs, QueryStats}

/** Distributed build + query answering: one [[LocalIndex]] per partition via
  * `mapPartitions`, broadcast query batches, and an exact driver-side top-k
  * merge (k-NN under a partition of the dataset is the k smallest of the
  * per-partition k smallest). The index RDD is the only RDD-API surface —
  * index objects are not relational rows; everything else is DataFrames.
  */
object Distributed {

  /** A built per-partition index collection plus build-time measurements. */
  final case class BuiltIndex(
      rdd: RDD[LocalIndex],
      buildWallMs: Double,
      partitions: Int,
      totalSeries: Long,
      maxPartitionBuildMs: Double,
  ) {
    /** Release cached partitions. */
    def unpersist(): Unit = rdd.unpersist(blocking = false)
  }

  /** Results of a query batch: merged exact answers, wall/per-query times,
    * and per-query merged access counters.
    */
  final case class QueryBatchResult(
      neighbors: Array[Array[Neighbor]],
      wallMs: Double,
      perQueryMs: Array[Double],
      perQueryStats: Array[QueryStats],
      totalSeries: Long,
  ) {
    /** Average per-query wall time (parallel critical path across partitions). */
    def avgQueryMs: Double = if (perQueryMs.isEmpty) 0.0 else perQueryMs.sum / perQueryMs.length
    /** Average fraction of the collection accessed per query. */
    def avgAccessFraction: Double =
      if (perQueryStats.isEmpty) 0.0
      else perQueryStats.map(_.accessFraction(totalSeries)).sum / perQueryStats.length
  }

  /** Repartition `df` (`id`, `series`) and build one `method` index per
    * partition inside `mapPartitions`; the RDD is cached and forced.
    */
  def build(df: DataFrame, method: String, cfg: IndexConfig, partitions: Int): BuiltIndex = {
    val spark = df.sparkSession
    import spark.implicits._
    val ds = df.as[(Long, Array[Float])]
    val t0 = System.nanoTime()
    val rdd = ds
      .repartition(partitions)
      .rdd
      .mapPartitions { it =>
        val arr = it.toArray
        Iterator.single(LocalIndex.build(method, arr.map(_._1), arr.map(_._2), cfg): LocalIndex)
      }
      .persist(StorageLevel.MEMORY_AND_DISK)
    try rdd.count()
    catch { case e: Throwable => rdd.unpersist(blocking = false); throw e }
    val wallMs = (System.nanoTime() - t0) / 1e6
    summarize(rdd, wallMs, partitions)
  }

  /** Series count and slowest build over the partitions of `rdd`. */
  private def summarize(rdd: RDD[LocalIndex], wallMs: Double, partitions: Int): BuiltIndex = {
    val stats = rdd.map(i => (i.index.nSeries.toLong, i.buildMs)).collect()
    BuiltIndex(rdd, wallMs, partitions, stats.map(_._1).sum, if (stats.isEmpty) 0 else stats.map(_._2).max)
  }

  /** Answer a broadcast batch of queries exactly; merge per-partition top-k.
    * The broadcast is destroyed also when a task fails.
    */
  def knnBatch(built: BuiltIndex, queries: Array[Array[Float]], knobs: QueryKnobs): QueryBatchResult = {
    val sc = built.rdd.sparkContext
    val bq = sc.broadcast(queries)
    val t0 = System.nanoTime()
    val partResults = try built.rdd.map { local =>
      val qs = bq.value
      val stats = Array.fill(qs.length)(new QueryStats)
      val times = new Array[Double](qs.length)
      val res = Array.tabulate(qs.length) { qi =>
        val q0 = System.nanoTime()
        val r = local.index.knn(qs(qi), knobs, stats(qi))
        times(qi) = (System.nanoTime() - q0) / 1e6
        r
      }
      (res, stats, times)
    }.collect()
    finally bq.destroy()
    val wallMs = (System.nanoTime() - t0) / 1e6
    val merged = Array.tabulate(queries.length) { qi =>
      val set = new KnnSet(knobs.k)
      partResults.foreach { case (res, _, _) => set.addAll(res(qi)) }
      set.toArray
    }
    val perQueryMs = Array.tabulate(queries.length) { qi =>
      if (partResults.isEmpty) 0.0 else partResults.map(_._3(qi)).max
    }
    val perQueryStats = Array.tabulate(queries.length) { qi =>
      val s = new QueryStats
      partResults.foreach(p => s.merge(p._2(qi)))
      s
    }
    QueryBatchResult(merged, wallMs, perQueryMs, perQueryStats, built.totalSeries)
  }

  /** Flatten merged answers into a `(qid, sid, dist)` DataFrame for the
    * DuckDB oracle (dist is the non-squared Euclidean distance).
    */
  def resultsToDF(spark: SparkSession, result: QueryBatchResult): DataFrame = {
    import spark.implicits._
    result.neighbors.zipWithIndex.flatMap { case (nbs, qi) =>
      nbs.map(nb => (qi.toLong, nb.id, math.sqrt(nb.dist2)))
    }.toSeq.toDF("qid", "sid", "dist")
  }

  /** Persist each partition's index as one [[LocalIndex.save]] file under
    * `dir`. A directory that already holds index files is refused, because
    * [[loadFromDir]] would answer from the union of both saves.
    */
  def saveToDir(built: BuiltIndex, dir: String): Unit = {
    Files.createDirectories(Paths.get(dir))
    val existing = indexFiles(dir)
    require(existing.isEmpty, s"$dir already holds index files: ${existing.mkString(", ")}")
    built.rdd.mapPartitionsWithIndex { (pid, it) =>
      it.foreach(_.save(Paths.get(s"$dir/part-$pid.idx")))
      Iterator.single(pid)
    }.count()
  }

  /** Reload a saved per-partition index collection (one task per file).
    * Files whose headers disagree on index class or series length are
    * refused with an `IOException`.
    */
  def loadFromDir(spark: SparkSession, dir: String): BuiltIndex = {
    val files = indexFiles(dir).map(f => s"$dir/$f")
    require(files.nonEmpty, s"no index files under $dir")
    val kinds = files.groupBy { f => val h = LocalIndex.readHeader(Paths.get(f)); (h.indexClass, h.len) }
    if (kinds.size > 1) throw new java.io.IOException(s"index files under $dir disagree: " + kinds.map {
      case ((cls, len), fs) => s"$cls of length $len in ${fs.mkString(", ")}" }.mkString("; "))
    val rdd = spark.sparkContext
      .parallelize(files.toSeq, files.length)
      .map(f => LocalIndex.load(Paths.get(f)))
      .persist(StorageLevel.MEMORY_AND_DISK)
    summarize(rdd, 0.0, files.length)
  }

  /** Names of the index files in `dir`, sorted. */
  private def indexFiles(dir: String): Array[String] =
    Option(new java.io.File(dir).list()).getOrElse(Array.empty[String]).filter(_.endsWith(".idx")).sorted
}
