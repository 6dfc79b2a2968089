package repro.experiments

import org.apache.spark.sql.SparkSession

import repro.core.{BaselineFormats, PcrEncoder}
import repro.imaging.DatasetSpec

/** Figure 22 / §A.4: dataset encoding cost. One PCR conversion versus
  * re-encoding the dataset at several static JPEG qualities — the paper's
  * point being that PCR pays roughly one conversion while static pipelines
  * pay one per fidelity level.
  */
final case class EncodeTimes(
    dataset: String,
    pcrSeconds: Double,
    pcrBytes: Long,
    staticSeconds: Map[Int, Double],
    staticBytes: Map[Int, Long]) {
  def staticTotalSeconds: Double = staticSeconds.values.sum
}

object Fig22Encoding {
  val StaticQualities: Seq[Int] = Seq(50, 75, 90, 95)

  def measure(
      spark: SparkSession,
      spec: DatasetSpec,
      sf: Double,
      baseDir: String): EncodeTimes = {
    val (pcr, pcrSec) = timed(
      PcrEncoder.encodeDataset(spark, spec, sf, s"$baseDir/pcr-${spec.name}"))
    val statics = StaticQualities.map { q =>
      val (files, sec) = timed(BaselineFormats.writeTfRecordLike(
        spark, spec, sf, s"$baseDir/static-${spec.name}-q$q", qualityOverride = Some(q)))
      q -> ((files.map(_._2).sum, sec))
    }
    EncodeTimes(spec.name, pcrSec, pcr.map(_.totalBytes).sum,
      statics.map { case (q, (_, s)) => q -> s }.toMap,
      statics.map { case (q, (b, _)) => q -> b }.toMap)
  }

  def render(rows: Seq[EncodeTimes]): String =
    markdownTable(Seq("Dataset", "PCR (s)", "q50 (s)", "q75 (s)", "q90 (s)", "q95 (s)", "Σ static (s)"),
      rows.map { r =>
        Seq(f"${r.dataset}%-9s", f"${r.pcrSeconds}%7.2f", f"${r.staticSeconds(50)}%7.2f",
          f"${r.staticSeconds(75)}%7.2f", f"${r.staticSeconds(90)}%7.2f",
          f"${r.staticSeconds(95)}%7.2f", f"${r.staticTotalSeconds}%12.2f")
      })
}
