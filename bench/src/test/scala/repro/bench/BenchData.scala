package repro.bench

import scala.collection.concurrent.TrieMap

import org.apache.spark.sql.SparkSession

import repro.{SparkSpec, TempDirs}
import repro.core.{BaselineFormats, PcrEncoder, RecordManifest}
import repro.imaging.DatasetSpec

/** Shared, lazily-encoded benchmark datasets.
  *
  * All bench suites run in one forked JVM (`Test / parallelExecution :=
  * false`), so each dataset is generated and PCR/TFRecord-encoded exactly
  * once at `BENCH_SF` (default 0.1 ≈ the paper's setup scaled to a laptop)
  * and reused across tables.
  */
object BenchData {
  val sf: Double = sys.env.getOrElse("BENCH_SF", "0.1").toDouble

  /** Deleted when the JVM exits. */
  lazy val baseDir: String = TempDirs.create("pcr-bench").toString

  private val pcr = TrieMap.empty[String, (String, Seq[RecordManifest])]
  private val tfr = TrieMap.empty[String, (String, Seq[(String, Long)])]

  def spark: SparkSession = SparkSpec.shared

  /** PCR directory + manifests for `spec` at the bench scale factor. */
  def pcrDataset(spec: DatasetSpec): (String, Seq[RecordManifest]) =
    pcr.getOrElseUpdate(spec.name, {
      val dir = s"$baseDir/pcr-${spec.name}"
      (dir, PcrEncoder.encodeDataset(spark, spec, sf, dir))
    })

  /** TFRecord-like directory + (path, bytes) for `spec` at bench scale. */
  def tfrDataset(spec: DatasetSpec): (String, Seq[(String, Long)]) =
    tfr.getOrElseUpdate(spec.name, {
      val dir = s"$baseDir/tfr-${spec.name}"
      (dir, BaselineFormats.writeTfRecordLike(spark, spec, sf, dir))
    })

  /** Print a clearly delimited result block into the bench log. */
  def report(title: String)(content: String): Unit = {
    println(s"\n===== $title =====")
    println(content)
    println("=" * (12 + title.length))
  }
}
