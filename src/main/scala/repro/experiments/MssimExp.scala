package repro.experiments

import repro.imaging.{DatasetSpec, Mssim, SyntheticImages}
import repro.jpeg.Codec

/** Figures 13 and 23 / §6.4: mean MSSIM of each scan group against the
  * full-fidelity reconstruction. The paper uses MSSIM ≥ 0.95 as the marker
  * of scans that "consistently perform well".
  */
final case class MssimRow(dataset: String, byScan: Map[Int, Double])

object MssimExp {

  def measure(spec: DatasetSpec, nImages: Int, seed: Long = 0L): MssimRow = {
    val sums = scala.collection.mutable.Map(ReportedScans.map(_ -> 0.0): _*)
    for (i <- 0 until nImages) {
      val img = SyntheticImages.generate(spec, i.toLong, seed)
      val scans = Codec.encodeProgressive(img, spec.quality)
      val ref = Codec.decodeProgressive(scans, spec.quality, spec.width, spec.height)
      for (g <- ReportedScans) {
        val dec = Codec.decodeProgressive(scans.take(g), spec.quality, spec.width, spec.height)
        sums(g) += Mssim.msssim(ref, dec)
      }
    }
    MssimRow(spec.name, sums.map { case (g, s) => g -> s / nImages }.toMap)
  }

  def render(rows: Seq[MssimRow]): String =
    markdownTable(Seq("Dataset", "Scan 1", "Scan 2", "Scan 5", "Scan 10"), rows.map { r =>
      Seq(f"${r.dataset}%-9s", f"${r.byScan(1)}%6.3f", f"${r.byScan(2)}%6.3f",
        f"${r.byScan(5)}%6.3f", f"${r.byScan(10)}%7.3f")
    })

  /** Pearson correlation between per-scan MSSIM and final test accuracy
    * (the Fig 13 linear-relationship check).
    */
  def correlation(mssim: Seq[Double], accuracy: Seq[Double]): Double = {
    require(mssim.length == accuracy.length && mssim.length >= 2, "need paired samples")
    val mx = mssim.sum / mssim.length
    val my = accuracy.sum / accuracy.length
    val num = mssim.zip(accuracy).map { case (x, y) => (x - mx) * (y - my) }.sum
    val dx = math.sqrt(mssim.map(x => (x - mx) * (x - mx)).sum)
    val dy = math.sqrt(accuracy.map(y => (y - my) * (y - my)).sum)
    if (dx == 0 || dy == 0) 0.0 else num / (dx * dy)
  }
}
