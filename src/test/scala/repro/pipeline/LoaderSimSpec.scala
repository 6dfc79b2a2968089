package repro.pipeline

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSupport
import repro.storage.{DiskModel, TokenBucket}

class LoaderSimSpec extends AnyFunSuite with PropSupport {

  private val disk = DiskModel(100e6, 0.0) // pure-bandwidth device for exactness

  test("IO-bound pipeline converges to W / E[record]") {
    val records = Seq.fill(200)(10_000_000L) // 10 MB records, 100 images each
    val res = LoaderSim.simulate(records, 100, computeImagesPerSec = 1e9, disk = disk)
    // Closed form: 100 MB/s over 100 kB/image = 1000 images/s.
    assert(math.abs(res.imagesPerSec - 1000.0) / 1000.0 < 0.02, s"${res.imagesPerSec}")
    assert(res.stallFraction > 0.9, "an IO-bound run is mostly stalled")
  }

  test("compute-bound pipeline converges to the compute rate with no stalls") {
    val records = Seq.fill(200)(1_000L)
    val res = LoaderSim.simulate(records, 100, computeImagesPerSec = 500.0, disk = disk)
    assert(math.abs(res.imagesPerSec - 500.0) / 500.0 < 0.02, s"${res.imagesPerSec}")
    assert(res.stallFraction < 0.01, s"stalls ${res.stallFraction}")
  }

  test("halving record bytes doubles an IO-bound rate (Thm 4.1)") {
    val full = Seq.fill(100)(10_000_000L)
    val half = Seq.fill(100)(5_000_000L)
    val rFull = LoaderSim.simulate(full, 100, 1e9, disk).imagesPerSec
    val rHalf = LoaderSim.simulate(half, 100, 1e9, disk).imagesPerSec
    assert(math.abs(rHalf / rFull - 2.0) < 0.05, s"${rHalf / rFull}")
  }

  test("a token bucket caps the effective bandwidth") {
    val records = Seq.fill(100)(10_000_000L)
    val limiter = new TokenBucket(20e6, 20e6) // 20 MB/s
    val res = LoaderSim.simulate(records, 100, 1e9, disk, limiter = Some(limiter))
    // 20 MB/s over 100 kB images = 200 img/s.
    assert(math.abs(res.imagesPerSec - 200.0) / 200.0 < 0.05, s"${res.imagesPerSec}")
  }

  test("multiple epochs reuse the record list and report per-epoch latency") {
    val records = Seq.fill(10)(1_000_000L)
    val res = LoaderSim.simulate(records, 10, 1e9, disk, epochs = 5)
    assert(res.epochSeconds.length == 5)
    val mean = res.epochSeconds.sum / 5
    res.epochSeconds.foreach(e => assert(math.abs(e - mean) / mean < 0.5))
  }

  test("seek-dominated per-image reads are far slower than records (25× claim)") {
    val hdd = DiskModel.hdd
    val imageBytes = Seq.fill(2000)(110_000L)
    val fpi = LoaderSim.simulateFilePerImage(imageBytes, 1e9, hdd)
    val record = LoaderSim.simulate(
      Seq.fill(2)(110_000L * 1000), 1000, 1e9, hdd)
    val slowdown = record.imagesPerSec / fpi.imagesPerSec
    assert(slowdown > 10, s"slowdown only $slowdown")
  }

  /** The dedicated File-per-Image loop `simulateFilePerImage` once ran:
    * images read back to back, each with one seek, never waiting for compute.
    */
  private def filePerImageReference(
      imageBytes: Seq[Long],
      computeImagesPerSec: Double,
      disk: DiskModel): SimResult = {
    var t = 0.0
    var computeFree = 0.0
    var stall = 0.0
    for (b <- imageBytes) {
      t += disk.readSeconds(b.toDouble, nSeeks = 1)
      val start = math.max(computeFree, t)
      stall += math.max(0.0, t - computeFree)
      computeFree = start + 1.0 / computeImagesPerSec
    }
    val total = computeFree
    SimResult(total, imageBytes.length / total, Vector(total), stall)
  }

  test("File-per-Image runs the record simulator bit-identically to the per-image loop") {
    val gen = for {
      sizes <- Gen.choose(1, 300).flatMap(Gen.listOfN(_, Gen.choose(0L, 5_000_000L)))
      rate <- Gen.choose(1.0, 1e6)
      bandwidth <- Gen.choose(1e5, 1e10)
      seek <- Gen.oneOf(Gen.const(0.0), Gen.choose(0.0, 0.05))
    } yield (sizes.toVector, rate, DiskModel(bandwidth, seek))
    checkProp(Prop.forAll(gen) { case (sizes, rate, d) =>
      val fpi = LoaderSim.simulateFilePerImage(sizes, rate, d)
      val ref = filePerImageReference(sizes, rate, d)
      (fpi.totalSeconds == ref.totalSeconds && fpi.imagesPerSec == ref.imagesPerSec &&
        fpi.epochSeconds == ref.epochSeconds && fpi.stallSeconds == ref.stallSeconds) :|
        s"$fpi != $ref"
    })
  }

  test("prefetching hides IO behind compute when rates are balanced") {
    // IO and compute each take ~1 s per record: with prefetch the pipeline
    // overlaps them, so the total is ~N s rather than ~2N s.
    val records = Seq.fill(50)(100_000_000L)
    val res = LoaderSim.simulate(records, 1000, computeImagesPerSec = 1000.0, disk = disk)
    assert(res.totalSeconds < 50 * 2 * 0.8, s"${res.totalSeconds}")
  }

  test("input validation") {
    assertThrows[IllegalArgumentException](LoaderSim.simulate(Seq.empty, 1, 1, disk))
    assertThrows[IllegalArgumentException](
      LoaderSim.simulate(Seq(1L), 1, 1, disk, prefetchDepth = 0))
  }
}
