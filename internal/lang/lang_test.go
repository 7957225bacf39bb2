package lang

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/sim/functional"
)

func TestLexerBasics(t *testing.T) {
	toks, err := LexAll("func f(a) { return a <= 3 && a != 0; } // comment\narray x[5];")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{KwFunc, IDENT, LParen, IDENT, RParen, LBrace, KwReturn,
		IDENT, LtEq, INT, AndAnd, IDENT, NotEq, INT, Semicolon, RBrace,
		KwArray, IDENT, LBracket, INT, RBracket, Semicolon, EOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("tok %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
	if toks[9].Int != 3 {
		t.Errorf("INT value = %d", toks[9].Int)
	}
}

func TestLexerOperators(t *testing.T) {
	toks, err := LexAll("<< >> < > <= >= == != = ! ~ & && | || ^ + - * / %")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{Shl, Shr, Lt, Gt, LtEq, GtEq, EqEq, NotEq, Assign, Not,
		Tilde, Amp, AndAnd, Pipe, OrOr, Caret, Plus, Minus, Star, Slash, Percent, EOF}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("tok %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
}

func TestLexerError(t *testing.T) {
	_, err := LexAll("func f() { @ }")
	if err == nil || !strings.Contains(err.Error(), "unexpected character") {
		t.Fatalf("want lex error, got %v", err)
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := LexAll("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("a at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("b at %d:%d", toks[1].Line, toks[1].Col)
	}
}

func TestParsePrecedence(t *testing.T) {
	f, err := Parse("func f(a, b) { return a + b * 2 == a << 1 || b < 3; }")
	if err != nil {
		t.Fatal(err)
	}
	ret := f.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	or := ret.Value.(*BinaryExpr)
	if or.Op != OrOr {
		t.Fatalf("root should be ||, got %s", or.Op)
	}
	eq := or.X.(*BinaryExpr)
	if eq.Op != EqEq {
		t.Fatalf("left of || should be ==, got %s", eq.Op)
	}
	add := eq.X.(*BinaryExpr)
	if add.Op != Plus {
		t.Fatalf("left of == should be +, got %s", add.Op)
	}
	if add.Y.(*BinaryExpr).Op != Star {
		t.Fatal("* should bind tighter than +")
	}
}

func TestParseStatements(t *testing.T) {
	src := `
array tab[8] = {1, 2, -3};
func main(n) {
  var s = 0;
  for (var i = 0; i < n; i = i + 1) {
    if (tab[i] > 0) { s = s + tab[i]; } else if (tab[i] < 0) { s = s - tab[i]; } else { continue; }
    while (s > 100) { s = s / 2; break; }
  }
  print(s);
  return s;
}`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Arrays) != 1 || f.Arrays[0].Size != 8 || len(f.Arrays[0].Init) != 3 || f.Arrays[0].Init[2] != -3 {
		t.Fatal("array decl parsed wrong")
	}
	if len(f.Funcs) != 1 || len(f.Funcs[0].Params) != 1 {
		t.Fatal("func decl parsed wrong")
	}
	if err := Check(f); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"func f( { }",
		"func f() { return 1 }",
		"array a[3",
		"func f() { if x { } }",
		"junk",
		"func f() { var; }",
		"func f() { 1 + ; }",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	cases := map[string]string{
		"func f() { x = 1; }":                                "undeclared",
		"func f() { var x = y; }":                            "undeclared",
		"func f() { break; }":                                "break outside loop",
		"func f() { continue; }":                             "continue outside loop",
		"func f() { var x; var x; }":                         "redeclaration",
		"func f(a, a) { }":                                   "duplicate parameter",
		"func f() { g(); }":                                  "undeclared function",
		"func g(a) {} func f() { g(); }":                     "with 0 args",
		"func f() { print(1, 2); }":                          "print takes exactly 1",
		"array a[0];":                                        "non-positive",
		"array a[2] = {1,2,3};":                              "initializers",
		"array a[2]; array a[2];":                            "duplicate array",
		"func f() {} func f() {}":                            "duplicate function",
		"func print(x) { }":                                  "builtin",
		"array a[2]; func f() { return a; }":                 "without index",
		"array a[2]; func f() { var x; x[0] = 1; }":          "non-array",
		"func f() { var a; return a[0]; }":                   "non-array",
		"array a[2]; func f() { var a; }":                    "shadows",
		"array a[2]; func a() { }":                           "both array and function",
		"func f() { for (var i = 0; i < 3; var j = 1) { } }": "cannot declare",
	}
	for src, want := range cases {
		f, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q) failed: %v", src, err)
			continue
		}
		err = Check(f)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Check(%q) = %v, want containing %q", src, err, want)
		}
	}
}

// TestCheckArrayWordBound: a program's arrays may total MaxArrayWords
// words and no more, however the words are split across arrays and
// however close a size comes to overflowing the running total.
func TestCheckArrayWordBound(t *testing.T) {
	cases := map[string]bool{
		"array a[1048576]; func main() { return 0; }":                                   true,
		"array a[524288]; array b[524288]; func main() { return 0; }":                   true,
		"array a[1048577]; func main() { return 0; }":                                   false,
		"array a[524288]; array b[524289]; func main() { return 0; }":                   false,
		"array a[1]; array b[9223372036854775807]; func main() { return 0; }":           false,
		"array a[4000000000]; func main() { a[3999999999] = 7; return a[3999999999]; }": false,
	}
	for src, ok := range cases {
		f, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		err = Check(f)
		if ok && err != nil {
			t.Errorf("Check(%q) = %v, want nil", src, err)
		}
		if !ok && (err == nil || !strings.Contains(err.Error(), "over 1048576 words")) {
			t.Errorf("Check(%q) = %v, want the array word bound", src, err)
		}
	}
}

// run compiles and runs fn with args, returning (result, output).
func run(t *testing.T, src, fn string, args ...int64) (int64, []int64) {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	v, out, _, err := functional.RunProgram(prog, fn, args...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return v, out
}

func TestLowerArithmetic(t *testing.T) {
	src := `func f(a, b) { return (a + b) * 2 - a / b + a % b - (a ^ b) + (a & b) - (a | b) + (a << 2) - (b >> 1) + ~a + -b + !a; }`
	got, _ := run(t, src, "f", 7, 3)
	a, b := int64(7), int64(3)
	nota := int64(0)
	want := (a+b)*2 - a/b + a%b - (a ^ b) + (a & b) - (a | b) + (a << 2) - (b >> 1) + ^a + -b + nota
	if got != want {
		t.Fatalf("got %d, want %d", got, want)
	}
}

func TestLowerDivByZero(t *testing.T) {
	got, _ := run(t, "func f(a) { return a / 0 + a % 0; }", "f", 5)
	if got != 0 {
		t.Fatalf("div/rem by zero must be 0, got %d", got)
	}
}

func TestLowerControlFlow(t *testing.T) {
	src := `
func fib(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}`
	got, _ := run(t, src, "fib", 10)
	if got != 55 {
		t.Fatalf("fib(10) = %d", got)
	}
}

func TestLowerLoops(t *testing.T) {
	src := `
func sum(n) {
  var s = 0;
  for (var i = 1; i <= n; i = i + 1) { s = s + i; }
  return s;
}
func sumw(n) {
  var s = 0;
  var i = 1;
  while (i <= n) { s = s + i; i = i + 1; }
  return s;
}`
	if got, _ := run(t, src, "sum", 100); got != 5050 {
		t.Fatalf("sum(100) = %d", got)
	}
	if got, _ := run(t, src, "sumw", 100); got != 5050 {
		t.Fatalf("sumw(100) = %d", got)
	}
}

func TestLowerBreakContinue(t *testing.T) {
	src := `
func f(n) {
  var s = 0;
  for (var i = 0; i < n; i = i + 1) {
    if (i % 2 == 0) { continue; }
    if (i > 10) { break; }
    s = s + i;
  }
  return s;
}`
	// 1+3+5+7+9 = 25
	if got, _ := run(t, src, "f", 100); got != 25 {
		t.Fatalf("f = %d", got)
	}
}

func TestLowerShortCircuit(t *testing.T) {
	src := `
array a[4];
func f(i, j) {
  // The right operand must not evaluate (would be out of bounds).
  if (i < 4 && a[i] == 0) { return 1; }
  if (j >= 4 || a[j] == 0) { return 2; }
  return 3;
}
func g(x, y) { var v = x && y; var w = x || y; return v * 10 + w; }`
	if got, _ := run(t, src, "f", 2, 9); got != 1 {
		t.Fatalf("f(2,9) = %d", got)
	}
	if got, _ := run(t, src, "f", 9, 9); got != 2 {
		t.Fatalf("f(9,9) = %d", got)
	}
	if got, _ := run(t, src, "g", 5, 0); got != 1 {
		t.Fatalf("g(5,0) = %d", got)
	}
	if got, _ := run(t, src, "g", 3, 4); got != 11 {
		t.Fatalf("g(3,4) = %d", got)
	}
}

func TestLowerArraysAndPrint(t *testing.T) {
	src := `
array a[10] = {5, 4, 3, 2, 1};
func main(n) {
  // insertion sort of a[0..n)
  for (var i = 1; i < n; i = i + 1) {
    var key = a[i];
    var j = i - 1;
    while (j >= 0 && a[j] > key) {
      a[j + 1] = a[j];
      j = j - 1;
    }
    a[j + 1] = key;
  }
  for (var k = 0; k < n; k = k + 1) { print(a[k]); }
  return 0;
}`
	_, out := run(t, src, "main", 5)
	want := []int64{1, 2, 3, 4, 5}
	if len(out) != len(want) {
		t.Fatalf("output = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("output = %v, want %v", out, want)
		}
	}
}

func TestLowerGlobalInit(t *testing.T) {
	src := `
array a[4] = {10, -20};
func f(i) { return a[i]; }`
	if got, _ := run(t, src, "f", 0); got != 10 {
		t.Fatal("init[0]")
	}
	if got, _ := run(t, src, "f", 1); got != -20 {
		t.Fatal("init[1] negative")
	}
	if got, _ := run(t, src, "f", 2); got != 0 {
		t.Fatal("init[2] default zero")
	}
}

func TestLowerUnreachableAfterReturn(t *testing.T) {
	src := `func f(a) { return a; a = a + 1; return a; }`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.VerifyProgram(prog); err != nil {
		t.Fatal(err)
	}
	if got, _, _, _ := functional.RunProgram(prog, "f", 3); got != 3 {
		t.Fatalf("f(3) = %d", got)
	}
}

func TestLowerImplicitReturn(t *testing.T) {
	if got, _ := run(t, "func f(a) { a = a + 1; }", "f", 3); got != 0 {
		t.Fatalf("implicit return = %d", got)
	}
}

func TestLowerCalls(t *testing.T) {
	src := `
func sq(x) { return x * x; }
func f(a, b) { return sq(a) + sq(b); }`
	if got, _ := run(t, src, "f", 3, 4); got != 25 {
		t.Fatalf("f = %d", got)
	}
}

const unrollTestSrc = `
array a[64];
array b[64];
func kernel(n) {
  var s = 0;
  for (var i = 0; i < n; i = i + 1) {
    a[i] = i * 3;
  }
  for (var j = 0; j < n; j = j + 1) {
    var t = a[j] + j;
    b[j] = t;
    s = s + t;
  }
  print(s);
  return s;
}`

func TestUnrollPreservesSemantics(t *testing.T) {
	for _, factor := range []int{2, 3, 4, 7} {
		for _, n := range []int64{0, 1, 2, 3, 4, 5, 8, 13, 64} {
			base, err := Compile(unrollTestSrc)
			if err != nil {
				t.Fatal(err)
			}
			unr, err := CompileUnrolled(unrollTestSrc, factor)
			if err != nil {
				t.Fatalf("factor %d: %v", factor, err)
			}
			v1, o1, _, err := functional.RunProgram(base, "kernel", n)
			if err != nil {
				t.Fatal(err)
			}
			v2, o2, _, err := functional.RunProgram(unr, "kernel", n)
			if err != nil {
				t.Fatalf("factor %d n %d: %v", factor, n, err)
			}
			if v1 != v2 || len(o1) != len(o2) || (len(o1) > 0 && o1[0] != o2[0]) {
				t.Fatalf("factor %d n %d: %d/%v vs %d/%v", factor, n, v1, o1, v2, o2)
			}
		}
	}
}

func TestUnrollActuallyUnrolls(t *testing.T) {
	f, err := Parse(unrollTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(f); err != nil {
		t.Fatal(err)
	}
	n, err := UnrollFile(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("unrolled %d loops, want 2", n)
	}
	if err := Check(f); err != nil {
		t.Fatalf("post-unroll check: %v", err)
	}
}

func TestUnrollSkipsIneligible(t *testing.T) {
	cases := []string{
		// break in body
		"func f(n) { for (var i=0; i<n; i=i+1) { if (i>2) { break; } } return 0; }",
		// induction assigned in body
		"func f(n) { for (var i=0; i<n; i=i+1) { i = i + 1; } return 0; }",
		// non-constant step
		"func f(n) { for (var i=0; i<n; i=i+n) { } return 0; }",
		// descending
		"func f(n) { for (var i=n; i>0; i=i+-1) { } return 0; }",
		// nested loop inside (outer not unrolled; inner has no post match)
		"func f(n) { for (var i=0; i<n; i=i+1) { var j=0; while (j<n) { j=j+1; } } return 0; }",
	}
	for _, src := range cases {
		f, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		n, err := UnrollFile(f, 4)
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Errorf("UnrollFile(%q) = %d, want 0", src, n)
		}
	}
}

func TestUnrollRenamesLocals(t *testing.T) {
	src := `
func f(n) {
  var s = 0;
  for (var i = 0; i < n; i = i + 1) {
    var t = i * 2;
    s = s + t;
  }
  return s;
}`
	for _, n := range []int64{0, 1, 5, 9} {
		prog, err := CompileUnrolled(src, 4)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, _, _, err := functional.RunProgram(prog, "f", n)
		if err != nil {
			t.Fatal(err)
		}
		want := n * (n - 1) // sum of 2i for i<n
		if got != want {
			t.Fatalf("f(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCompileErrorsPropagate(t *testing.T) {
	if _, err := Compile("func f( {"); err == nil {
		t.Fatal("parse error must propagate")
	}
	if _, err := Compile("func f() { x = 1; }"); err == nil {
		t.Fatal("check error must propagate")
	}
	if _, err := CompileUnrolled("func f( {", 4); err == nil {
		t.Fatal("CompileUnrolled must propagate errors")
	}
}

func TestCloneStmtIndependence(t *testing.T) {
	f, err := Parse("func f(n) { var s = 0; if (n > 0) { s = n; } else { s = -n; } while (s > 0) { s = s - 1; } return s; }")
	if err != nil {
		t.Fatal(err)
	}
	body := f.Funcs[0].Body
	cp, err := CloneBlock(body)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the clone's if condition; original must be unaffected.
	cp.Stmts[1].(*IfStmt).Cond.(*BinaryExpr).Op = Lt
	if body.Stmts[1].(*IfStmt).Cond.(*BinaryExpr).Op != Gt {
		t.Fatal("CloneBlock shares expression nodes")
	}
}
