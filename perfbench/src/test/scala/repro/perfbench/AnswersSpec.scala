package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class AnswersSpec extends AnyFunSuite {

  private def answer(entries: (Double, Seq[Int])*): Answer =
    Answer(entries.map { case (s, nodes) => Answer.Entry(nodes, s) })

  private val ref = answer(0.5 -> Seq(1, 2), 0.25 -> Seq(3, 4), 0.25 -> Seq(5, 6), 0.125 -> Seq(7, 8))

  test("an answer agrees with itself") {
    assert(Answers.agree(ref, ref, k = 4).isEmpty)
  }

  test("node sets tied at the k-th score may differ in membership") {
    val other = answer(0.5 -> Seq(1, 2), 0.25 -> Seq(5, 6), 0.25 -> Seq(3, 4), 0.125 -> Seq(9, 10))
    assert(Answers.agree(other, ref, k = 4).isEmpty)
  }

  test("node sets above the k-th score must match") {
    val other = answer(0.5 -> Seq(1, 2), 0.25 -> Seq(3, 4), 0.25 -> Seq(5, 9), 0.125 -> Seq(7, 8))
    assert(Answers.agree(other, ref, k = 4).exists(_.contains("0.25")))
  }

  test("the score sequence must match") {
    val other = answer(0.5 -> Seq(1, 2), 0.25 -> Seq(3, 4), 0.125 -> Seq(5, 6), 0.125 -> Seq(7, 8))
    assert(Answers.agree(other, ref, k = 4).exists(_.contains("rank 3")))
    assert(Answers.agree(answer(0.5 -> Seq(1, 2)), ref, k = 4).nonEmpty)
  }

  test("with fewer than k sets nothing was cut, so the last level must match too") {
    val other = answer(0.5 -> Seq(1, 2), 0.25 -> Seq(3, 4), 0.25 -> Seq(5, 6), 0.125 -> Seq(9, 10))
    assert(Answers.agree(other, ref, k = 10).nonEmpty)
    assert(Answers.agree(ref, ref, k = 10).isEmpty)
  }

  test("scores that differ only by summation order agree") {
    val exact = answer(0.1 + 0.2 -> Seq(1, 2))
    assert(Answers.agree(exact, answer(0.3 -> Seq(1, 2)), k = 10).isEmpty)
  }

  test("structural checks accept a well-formed sampled answer") {
    assert(Answers.structural(ref, k = 4, theta = Some(8)).isEmpty)
  }

  test("structural checks catch each malformed answer") {
    assert(Answers.structural(ref, k = 3, theta = Some(8)).exists(_.contains("k=3")))
    assert(Answers.structural(ref, k = 4, theta = Some(3)).exists(_.contains("freq/3")))
    assert(Answers.structural(answer(0.25 -> Seq(1, 2), 0.5 -> Seq(3, 4)), 4, None).exists(_.contains("descending")))
    assert(Answers.structural(answer(0.5 -> Seq(2, 1)), 4, None).exists(_.contains("not sorted")))
    assert(Answers.structural(answer(0.5 -> Seq(1, 2), 0.5 -> Seq(1, 2)), 4, None).contains("duplicate node set"))
    assert(Answers.structural(answer(1.5 -> Seq(1, 2)), 4, None).exists(_.contains("outside")))
    assert(Answers.structural(Answer(Seq.empty), 4, None).contains("empty answer"))
  }

  test("reference lines round-trip") {
    val path = java.nio.file.Files.createTempFile("reference", ".tsv")
    java.nio.file.Files.write(path, java.util.Arrays.asList(Answers.referenceLines("w", 2, ref): _*))
    assert(Answers.readReference(path) == Map(("w", 2) -> ref))
    java.nio.file.Files.delete(path)
  }
}
