package repro.jpeg

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}

import repro.PropSupport

/** Bit-at-a-time writer: the reference the buffered [[BitWriter]] must
  * match byte for byte.
  */
private final class ReferenceBitWriter {
  private val out = scala.collection.mutable.ArrayBuffer.empty[Byte]
  private var cur = 0
  private var nCur = 0

  def writeBits(v: Int, n: Int): Unit = {
    var i = n - 1
    while (i >= 0) {
      cur = (cur << 1) | ((v >>> i) & 1)
      nCur += 1
      if (nCur == 8) { out += cur.toByte; cur = 0; nCur = 0 }
      i -= 1
    }
  }

  def bitLength: Long = out.length.toLong * 8 + nCur

  def toBytes: Array[Byte] =
    if (nCur == 0) out.toArray
    else (out :+ ((cur << (8 - nCur)) | ((1 << (8 - nCur)) - 1)).toByte).toArray
}

/** Bit-at-a-time reader: the reference the buffered [[BitReader]] must
  * match, including the 1s past the end.
  */
private final class ReferenceBitReader(bytes: Array[Byte]) {
  private var pos = 0L
  private val nBits = bytes.length.toLong * 8

  def readBits(n: Int): Int = {
    var v = 0; var i = 0
    while (i < n) {
      val bit =
        if (pos >= nBits) 1
        else (bytes((pos >> 3).toInt) >> (7 - (pos & 7)).toInt) & 1
      pos += 1
      v = (v << 1) | bit
      i += 1
    }
    v
  }

  def bitsRead: Long = pos
  def exhausted: Boolean = pos >= nBits
}

class BitIOSpec extends AnyFunSuite with PropSupport {

  test("bit sequences round-trip") {
    checkProp(Prop.forAll(Gen.listOf(Gen.oneOf(0, 1))) { bits =>
      val w = new BitWriter()
      bits.foreach(w.writeBit)
      val r = new BitReader(w.toBytes)
      bits.forall(b => r.readBit() == b)
    })
  }

  test("multi-bit values round-trip") {
    val valueGen = for {
      n <- Gen.choose(0, 24)
      v <- Gen.choose(0, if (n == 0) 0 else (1 << n) - 1)
    } yield (v, n)
    checkProp(Prop.forAll(Gen.listOf(valueGen)) { pairs =>
      val w = new BitWriter()
      pairs.foreach { case (v, n) => w.writeBits(v, n) }
      val r = new BitReader(w.toBytes)
      pairs.forall { case (v, n) => r.readBits(n) == v }
    })
  }

  test("bitLength counts exactly") {
    val w = new BitWriter()
    assert(w.bitLength == 0)
    w.writeBits(5, 3)
    assert(w.bitLength == 3)
    w.writeBits(0xff, 8)
    assert(w.bitLength == 11)
  }

  test("padding fills the final byte with 1s") {
    val w = new BitWriter()
    w.writeBits(0, 3) // 000 + 11111 padding
    assert(w.toBytes.sameElements(Array(0x1f.toByte)))
  }

  test("byte length is ceil(bits/8)") {
    checkProp(Prop.forAll(Gen.choose(0, 100)) { n =>
      val w = new BitWriter()
      (0 until n).foreach(_ => w.writeBit(1))
      w.toBytes.length == (n + 7) / 8
    })
  }

  test("reading past the end yields padding 1s") {
    val r = new BitReader(Array[Byte]())
    assert(r.readBit() == 1)
    assert(r.readBits(5) == 31)
  }

  test("writer grows beyond its initial capacity") {
    val w = new BitWriter(initialCapacity = 1)
    (0 until 10000).foreach(i => w.writeBit(i & 1))
    val r = new BitReader(w.toBytes)
    (0 until 10000).foreach(i => assert(r.readBit() == (i & 1)))
  }

  test("negative bit counts are rejected") {
    assertThrows[IllegalArgumentException](new BitWriter().writeBits(0, -1))
  }

  // ----------------------------------------------- against the references

  private val writeGen: Gen[(Int, Int)] = for {
    n <- Gen.choose(0, 32)
    v <- Gen.oneOf(Gen.choose(Int.MinValue, Int.MaxValue), Gen.choose(-1, 1))
  } yield (v, n)

  test("writer bytes and bitLength equal the bit-at-a-time reference for widths 0 to 32") {
    checkProp(Prop.forAll(Gen.listOf(writeGen)) { writes =>
      val w = new BitWriter(initialCapacity = 1); val ref = new ReferenceBitWriter
      writes.forall { case (v, n) =>
        w.writeBits(v, n); ref.writeBits(v, n)
        w.bitLength == ref.bitLength
      } && w.toBytes.sameElements(ref.toBytes)
    }, 300)
  }

  test("writeBits of a negative value at width 32 writes all 32 bits") {
    val w = new BitWriter(); val ref = new ReferenceBitWriter
    for ((v, n) <- Seq((1, 3), (-1, 32), (Int.MinValue, 32), (-123456789, 32), (5, 0), (-2, 7))) {
      w.writeBits(v, n); ref.writeBits(v, n)
    }
    assert(w.toBytes.sameElements(ref.toBytes))
    assert(w.bitLength == 3 + 32 * 3 + 7)
    val r = new BitReader(w.toBytes)
    assert(r.readBits(3) == 1 && r.readBits(32) == -1 && r.readBits(32) == Int.MinValue)
    assert(r.readBits(32) == -123456789 && r.readBits(7) == 0x7e)
  }

  test("reads of widths 0 to 32 across refills and past the end equal the reference") {
    val gen = for {
      bytes <- Gen.choose(0, 40).flatMap(Gen.containerOfN[Array, Byte](_, Gen.choose(Byte.MinValue, Byte.MaxValue)))
      widths <- Gen.listOf(Gen.choose(0, 32))
    } yield (bytes, widths)
    checkProp(Prop.forAll(gen) { case (bytes, widths) =>
      val r = new BitReader(bytes); val ref = new ReferenceBitReader(bytes)
      widths.forall { n =>
        r.readBits(n) == ref.readBits(n) && r.bitsRead == ref.bitsRead && r.exhausted == ref.exhausted
      }
    }, 300)
  }

  test("a read that straddles the 64-bit buffer boundary is exact") {
    // Bits 0..63 are 0, 64..127 are 1: a 13-bit read from bit 57 gives
    // seven 0s then six 1s, whatever the buffer held before.
    val bytes = Array.fill[Byte](8)(0) ++ Array.fill[Byte](8)(-1)
    for (first <- 1 to 32) {
      val r = new BitReader(bytes)
      var left = 57
      while (left > 0) { val n = math.min(first, left); assert(r.readBits(n) == 0); left -= n }
      assert(r.readBits(13) == 0x3f, s"after reads of $first bits")
      assert(r.bitsRead == 70)
    }
  }

  test("reading past the end keeps yielding 1s and counting bits") {
    val r = new BitReader(Array[Byte](0, 0))
    assert(r.readBits(12) == 0)
    assert(!r.exhausted)
    assert(r.readBits(8) == 0x0f) // 4 real 0s, then 4 padding 1s
    assert(r.exhausted)
    (0 until 10).foreach(_ => assert(r.readBits(32) == -1))
    assert(r.readBit() == 1)
    assert(r.bitsRead == 12 + 8 + 320 + 1)
  }

  test("bitsRead and exhausted count exactly") {
    val r = new BitReader(Array[Byte](1, 2, 3))
    assert(r.bitsRead == 0 && !r.exhausted)
    assert(r.readBits(0) == 0 && r.bitsRead == 0)
    r.readBits(23)
    assert(r.bitsRead == 23 && !r.exhausted)
    r.readBit()
    assert(r.bitsRead == 24 && r.exhausted)
  }
}
