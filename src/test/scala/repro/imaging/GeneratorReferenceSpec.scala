package repro.imaging

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}

import repro.PropSupport

/** [[SyntheticImages]] against [[ReferenceGenerator]]: the same pixels for
  * every dataset, id and seed, one image at a time and in mixed-label
  * batches.
  */
class GeneratorReferenceSpec extends AnyFunSuite with PropSupport {

  private def samePixels(a: PlanarImage, b: PlanarImage): Boolean =
    a.width == b.width && a.height == b.height &&
      a.y.sameElements(b.y) && a.cb.sameElements(b.cb) && a.cr.sameElements(b.cr)

  private val seedGen: Gen[Long] = Gen.oneOf(Gen.choose(Long.MinValue, Long.MaxValue), Gen.choose(0L, 10L))

  test("generate equals the reference pixel for pixel on every dataset") {
    val gen = for {
      spec <- Gen.oneOf(SyntheticImages.all)
      id <- Gen.oneOf(Gen.choose(0L, 1000000L), Gen.choose(Long.MinValue, Long.MaxValue))
      seed <- seedGen
    } yield (spec, id, seed)
    checkProp(Prop.forAll(gen) { case (spec, id, seed) =>
      samePixels(SyntheticImages.generate(spec, id, seed), ReferenceGenerator.generate(spec, id, seed))
    }, 120)
  }

  test("a mixed-label batch equals per-id generate and the reference") {
    // A few ids from a narrow range, so labels repeat and some ids do too.
    val gen = for {
      spec <- Gen.oneOf(SyntheticImages.all)
      first <- Gen.choose(0L, 100000L)
      ids <- Gen.choose(1, 12).flatMap(Gen.listOfN(_, Gen.choose(first, first + 40)))
      seed <- seedGen
    } yield (spec, ids, seed)
    checkProp(Prop.forAll(gen) { case (spec, ids, seed) =>
      val batch = SyntheticImages.generateAll(spec, ids, seed)
      batch.length == ids.length && ids.zip(batch).forall { case (id, img) =>
        samePixels(img, SyntheticImages.generate(spec, id, seed)) &&
          samePixels(img, ReferenceGenerator.generate(spec, id, seed))
      }
    }, 40)
  }
}
