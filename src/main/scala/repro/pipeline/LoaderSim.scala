package repro.pipeline

import repro.storage.{DiskModel, TokenBucket}

/** Result of a loader/compute simulation. */
final case class SimResult(
    totalSeconds: Double,
    imagesPerSec: Double,
    epochSeconds: Vector[Double],
    stallSeconds: Double) {
  def stallFraction: Double = if (totalSeconds == 0) 0.0 else stallSeconds / totalSeconds
}

/** Deterministic discrete-event simulation of the paper's training pipeline
  * (Appendix A.1, Figure 17): a closed-loop loader prefetches records ahead
  * of an open compute unit; the compute unit stalls when the prefetch queue
  * drains. Optionally rate-limited by a token bucket (Figure 16).
  *
  * Virtual time only — results depend purely on byte sizes and rates, so a
  * simulated "cluster" is reproducible on any machine.
  */
object LoaderSim {

  /** Simulate `epochs` passes over `recordBytes` (bytes of each sequential
    * record read; for PCRs this is the scan-group prefix length).
    *
    * @param imagesPerRecord   images yielded by each record
    * @param computeImagesPerSec  the accelerator's saturated service rate
    * @param disk              storage cost model (per-record seek + bytes)
    * @param limiter           optional token-bucket bandwidth cap
    * @param prefetchDepth     records the loader may run ahead of compute
    */
  def simulate(
      recordBytes: Seq[Long],
      imagesPerRecord: Int,
      computeImagesPerSec: Double,
      disk: DiskModel,
      limiter: Option[TokenBucket] = None,
      prefetchDepth: Int = 2,
      epochs: Int = 1): SimResult = {
    require(recordBytes.nonEmpty, "no records to simulate")
    require(prefetchDepth >= 1, "prefetch depth must be >= 1")
    val perRecordCompute = imagesPerRecord / computeImagesPerSec
    val nPerEpoch = recordBytes.length
    val total = nPerEpoch * epochs
    val loadDone = new Array[Double](total)
    val computeDone = new Array[Double](total)
    var stall = 0.0
    val epochEnds = Vector.newBuilder[Double]

    var r = 0
    var loaderFree = 0.0
    var computeFree = 0.0
    while (r < total) {
      val bytes = recordBytes(r % nPerEpoch).toDouble
      // Backpressure: the loader blocks until the record `prefetchDepth`
      // behind has been consumed.
      val backpressure = if (r >= prefetchDepth) computeDone(r - prefetchDepth) else 0.0
      val start = math.max(loaderFree, backpressure)
      val afterTokens = limiter.map(_.acquire(bytes, start)).getOrElse(start)
      loadDone(r) = afterTokens + disk.readSeconds(bytes)
      loaderFree = loadDone(r)

      val computeStart = math.max(computeFree, loadDone(r))
      stall += math.max(0.0, loadDone(r) - computeFree)
      computeDone(r) = computeStart + perRecordCompute
      computeFree = computeDone(r)

      if ((r + 1) % nPerEpoch == 0) epochEnds += computeFree
      r += 1
    }
    val ends = epochEnds.result()
    val perEpoch = ends.zip(0.0 +: ends.dropRight(1)).map { case (e, s) => e - s }
    val totalSec = ends.last
    SimResult(totalSec, total.toLong * imagesPerRecord / totalSec, perEpoch, stall)
  }

  /** File-per-Image epoch simulation: every image is its own one-seek record,
    * prefetched without limit — the layout the paper finds ~25× slower (§6.2).
    */
  def simulateFilePerImage(
      imageBytes: Seq[Long],
      computeImagesPerSec: Double,
      disk: DiskModel): SimResult =
    simulate(imageBytes, 1, computeImagesPerSec, disk, prefetchDepth = math.max(1, imageBytes.length))
}
