package repro.experiments

import repro.core.RecordManifest
import repro.imaging.DatasetSpec

/** Table 3: per-dataset PCR directory statistics — records, images, total
  * size, native JPEG quality, classes.
  */
final case class DatasetStats(
    dataset: String,
    records: Int,
    images: Long,
    totalBytes: Long,
    quality: Int,
    classes: Int)

object Table3Datasets {

  /** Build the stats from an already-encoded dataset's manifests. */
  def fromManifests(spec: DatasetSpec, manifests: Seq[RecordManifest]): DatasetStats =
    DatasetStats(spec.name, manifests.size, manifests.map(_.nImages.toLong).sum,
      manifests.map(_.totalBytes).sum, spec.quality, spec.numClasses)

  def render(rows: Seq[DatasetStats]): String =
    markdownTable(Seq("Dataset", "Records", "Images", "Size", "Quality", "Classes"), rows.map { r =>
      Seq(f"${r.dataset}%-9s", f"${r.records}%7d", f"${r.images}%6d",
        f"${r.totalBytes / 1024.0 / 1024.0}%6.2f MiB", f"${r.quality}%6d%%", f"${r.classes}%7d")
    })
}
