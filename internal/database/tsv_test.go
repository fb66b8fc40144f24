package database

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"rankedaccess/internal/values"
)

// scannerReadRelation is the line-by-line loader ReadRelation replaced
// (bufio.Scanner, strings.Fields, strconv.ParseInt, one AddRow per
// row), kept as the oracle FuzzReadRelation and TestReadRelationLineCap
// hold the byte-level parser to.
func scannerReadRelation(in *Instance, name string, rd io.Reader) error {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	arity := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if arity == -1 {
			arity = len(fields)
		} else if len(fields) != arity {
			return fmt.Errorf("database: relation %s: row arity %d, expected %d", name, len(fields), arity)
		}
		row := make([]values.Value, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return fmt.Errorf("database: relation %s: %w", name, err)
			}
			row[i] = v
		}
		in.AddRow(name, row...)
	}
	return sc.Err()
}

// relRows returns the rows of the named relation, nil when it is absent.
func relRows(in *Instance, name string) [][]values.Value {
	if r := in.Relation(name); r != nil {
		return r.Rows()
	}
	return nil
}

// checkAgainstScanner reads src with ReadRelation, straight and through
// a one-byte reader (no size hint, a refill per byte), and with the
// oracle: both accept to equal rows or both refuse with equal text, and
// a refusal leaves no relation behind.
func checkAgainstScanner(t *testing.T, src []byte) {
	t.Helper()
	want := NewInstance()
	werr := scannerReadRelation(want, "R", bytes.NewReader(src))
	for _, rd := range []io.Reader{bytes.NewReader(src), iotest.OneByteReader(bytes.NewReader(src))} {
		got := NewInstance()
		gerr := got.ReadRelation("R", rd)
		switch {
		case (gerr == nil) != (werr == nil):
			t.Fatalf("ReadRelation(%q) = %v, scanner loader = %v", src, gerr, werr)
		case gerr != nil && gerr.Error() != werr.Error():
			t.Fatalf("ReadRelation(%q) error %q, scanner loader %q", src, gerr, werr)
		case gerr != nil && got.Relation("R") != nil:
			t.Fatalf("ReadRelation(%q) failed but left %d rows", src, got.Relation("R").Len())
		case gerr == nil && !reflect.DeepEqual(relRows(got, "R"), relRows(want, "R")):
			t.Fatalf("ReadRelation(%q) rows %v, scanner loader %v", src, relRows(got, "R"), relRows(want, "R"))
		}
	}
}

// FuzzReadRelation holds the byte-level TSV parser to the Scanner-based
// loader it replaced: same acceptance, rows and error text on any input.
func FuzzReadRelation(f *testing.F) {
	for _, s := range []string{
		"1\t5\n1 2\n\n6 2\n",
		"1 2\r\n3 4\r\n",
		"\t1\t\t2\t\n",
		"1 2\n3 4\n",
		"1 2\u0085\n",
		"1\u00a02\n3 4\n",
		"\u00a0# comment after a no-break space\n1\n",
		" # comment\n1\n",
		"+7 -0\n+0 -8\n",
		"9223372036854775807 -9223372036854775808\n",
		"9223372036854775808\n",
		"-9223372036854775809\n",
		"000000000000000000000000042\n",
		"999999999999999999 1000000000000000000\n",
		"# header\n  # indented comment\n1 2\n",
		"1 2\n3\n",
		"1 x\n",
		"1 x y\n2 3\n",
		"1 2\n3 x 4\n",
		"1 #2\n",
		"+\n",
		"-\n",
		"1\x002\n",
		"1\v2\f3\n",
		"\xff\xfe 1\n",
		"1 2\n3 4",
		"\n\n\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		checkAgainstScanner(t, src)
	})
}

// A line of up to 1 MiB, its newline included, is read; one byte more
// is refused with bufio.ErrTooLong, as the Scanner refused it, and the
// rows before it are not installed.
func TestReadRelationLineCap(t *testing.T) {
	line := func(n int) string { return "1 2" + strings.Repeat(" ", n-3) }
	for _, tc := range []struct {
		src     string
		refused bool
	}{
		{line(maxLine-1) + "\n", false},
		{line(maxLine - 1), false},
		{"3 4\n" + line(maxLine) + "\n", true},
		{"3 4\n" + line(maxLine), true},
	} {
		checkAgainstScanner(t, []byte(tc.src))
		in := NewInstance()
		err := in.ReadRelation("R", strings.NewReader(tc.src))
		if tc.refused != errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("%d-byte input: err = %v, want refused %v", len(tc.src), err, tc.refused)
		}
	}
}

// Reading into a relation of another arity is an error naming the
// relation and both arities, not a panic, and changes nothing.
func TestReadRelationArityOfExistingRelation(t *testing.T) {
	in := NewInstance()
	in.AddRow("R", 1, 2)
	err := in.ReadRelation("R", strings.NewReader("# three columns\n1 2 3\n"))
	if err == nil || err.Error() != "database: relation R has arity 2, rows have arity 3" {
		t.Fatalf("err = %v", err)
	}
	if got := in.Relation("R").Rows(); !reflect.DeepEqual(got, [][]values.Value{row(1, 2)}) {
		t.Fatalf("R = %v after a refused read", got)
	}
	if err := in.ReadRelation("R", strings.NewReader("3 4\n")); err != nil {
		t.Fatal(err)
	}
	if got := in.Relation("R").Rows(); !reflect.DeepEqual(got, [][]values.Value{row(1, 2), row(3, 4)}) {
		t.Fatalf("R = %v after appending a row of its arity", got)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "R.tsv"), []byte("5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := in.ReadDir(dir); err == nil || err.Error() != "database: relation R has arity 2, rows have arity 1" {
		t.Fatalf("ReadDir err = %v", err)
	}
}

// A failed read leaves the instance as it was: no relation when there
// was none, and an existing relation without the rows before the bad
// line.
func TestReadRelationFailureChangesNothing(t *testing.T) {
	in := NewInstance()
	if err := in.ReadRelation("R", strings.NewReader("1 2\n3 4\n5 x\n")); err == nil {
		t.Fatal("a bad last line must fail the read")
	}
	if in.Relation("R") != nil {
		t.Fatalf("a failed read created R with %d rows", in.Relation("R").Len())
	}
	in.AddRow("R", 7, 7)
	if err := in.ReadRelation("R", strings.NewReader("1 2\n3 4\n5\n")); err == nil {
		t.Fatal("a ragged last line must fail the read")
	}
	if got := in.Relation("R").Rows(); !reflect.DeepEqual(got, [][]values.Value{row(7, 7)}) {
		t.Fatalf("R = %v after a failed read", got)
	}
}

// A bad file in the middle of a directory fails ReadDir with its own
// error and loads nothing: not the files before it, not those after.
func TestReadDirFailureLoadsNothing(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"A.tsv": "1 2\n",
		"B.tsv": "1 2\n3 y\n",
		"C.tsv": "5 6\n",
		"D.tsv": "x\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	in := NewInstance()
	in.AddRow("C", 9, 9)
	n, err := in.ReadDir(dir)
	if n != 0 || err == nil || !strings.Contains(err.Error(), "relation B") {
		t.Fatalf("ReadDir = %d, %v; want 0 and relation B's error", n, err)
	}
	if got := in.Names(); !reflect.DeepEqual(got, []string{"C"}) {
		t.Fatalf("relations after a failed ReadDir: %v", got)
	}
	if got := in.Relation("C").Rows(); !reflect.DeepEqual(got, [][]values.Value{row(9, 9)}) {
		t.Fatalf("C = %v after a failed ReadDir", got)
	}
}

// With a size hint, a file of uniform rows lands in one array with a
// few percent of slack, not append's doubling.
func TestReadRelationSizesFromHint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := NewInstance()
	for i := 0; i < 100_000; i++ {
		src.AddRow("R", rng.Int63n(1<<16), rng.Int63n(1<<16))
	}
	var tsv bytes.Buffer
	if err := src.WriteRelation("R", &tsv); err != nil {
		t.Fatal(err)
	}
	in := NewInstance()
	if err := in.ReadRelation("R", bytes.NewReader(tsv.Bytes())); err != nil {
		t.Fatal(err)
	}
	r := in.Relation("R")
	if !reflect.DeepEqual(r.Data(), src.Relation("R").Data()) {
		t.Fatal("rows differ from the written relation")
	}
	if n, c := len(r.data), cap(r.data); c > n+n/20 {
		t.Fatalf("%d values in an array of %d", n, c)
	}
}
