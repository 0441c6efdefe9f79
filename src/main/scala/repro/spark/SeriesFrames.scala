package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.SeriesGen

/** DataFrame-side dataset generation.
  *
  * A dataset is `(id: Long, series: Array[Float])`; every series is the pure
  * function `SeriesGen.seriesForId(kind, id, len, seed)`, so executors and
  * the driver-side query generators agree without shipping data.
  */
object SeriesFrames {

  /** A deterministic dataset of `n` series of `kind`, as a DataFrame. */
  def dataset(spark: SparkSession, kind: String, n: Long, len: Int, seed: Long): DataFrame = {
    import spark.implicits._
    spark.range(n).map(id => (id, SeriesGen.seriesForId(kind, id, len, seed))).toDF("id", "series")
  }

  /** Long (exploded) view `(id, pos, val)` of a series DataFrame — the shape
    * the DuckDB oracle consumes.
    */
  def explode(df: DataFrame): DataFrame = {
    import org.apache.spark.sql.functions._
    // Cast points to double so their string form round-trips exactly through
    // the oracle's VARCHAR staging (Float.toString would re-parse inexactly).
    df.select(col("id"), posexplode(col("series")).as(Seq("pos", "val")))
      .withColumn("val", col("val").cast("double"))
  }
}
