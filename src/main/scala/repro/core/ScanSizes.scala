package repro.core

/** Per-scan size statistics of an encoded dataset — the measurements behind
  * the paper's Table 1 (size-reduction factors), Figure 8 (cumulative scan
  * sizes) and every bandwidth prediction derived from them.
  */
final case class ScanSizeStats(
    dataset: String,
    nImages: Long,
    /** mean cumulative bytes per image after reading scan groups 1..g
      * (index 0 = scan group 1).
      */
    meanCumulativeBytes: Vector[Double],
    /** mean sequential (baseline JPEG) bytes per image. */
    meanBaselineBytes: Double) {

  /** Mean image size at full fidelity, E[s(x)] of Table 1. */
  def meanFullBytes: Double = meanCumulativeBytes.last

  /** Table 1's reduction factor: full size over the scan-g prefix size. */
  def reductionFactor(scanGroup: Int): Double =
    meanFullBytes / meanCumulativeBytes(scanGroup - 1)
}

object ScanSizes {

  /** Per-scan sizes of `dataset` as stored: the progressive scan bytes come
    * from the offset index of its PCR records (`manifests`), the baseline
    * bytes from the sequential JPEG payloads of its TFRecord-like files
    * (`tfrFiles`, as (path, bytes) pairs). Both must hold the same images.
    */
  def fromRecords(
      dataset: String,
      manifests: Seq[RecordManifest],
      tfrFiles: Seq[(String, Long)]): ScanSizeStats = {
    require(manifests.nonEmpty, s"$dataset: no PCR records")
    val n = manifests.map(_.nImages.toLong).sum
    val nScanGroups = manifests.head.groupEndOffsets.length - 1
    val baseline = tfrFiles.flatMap { case (path, _) => BaselineFormats.payloadBytes(path) }
    require(baseline.length == n, s"$dataset: ${baseline.length} TFRecord images, $n PCR images")
    ScanSizeStats(dataset, n,
      (1 to nScanGroups).map(g => manifests.map(_.scanBytes(g)).sum.toDouble / n).toVector,
      baseline.sum.toDouble / n)
  }
}
