package database

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"strconv"
	"strings"
	"unicode/utf8"

	"rankedaccess/internal/values"
)

// maxLine bounds one TSV line, its newline included. A longer line is
// refused with bufio.ErrTooLong, the error bufio.Scanner gives for it.
const maxLine = 1 << 20

// isSpace marks the ASCII bytes strings.Fields and strings.TrimSpace
// treat as white space.
var isSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// tsvParser decodes the rows of one relation into a flat value array
// in one pass. It never touches an Instance, so several files can be
// parsed at once and installed afterwards.
type tsvParser struct {
	name  string
	want  int // arity of the relation the rows will extend, or -1
	arity int // arity of the first row, or -1 before it
	data  []values.Value
	hint  int64 // expected input size in bytes, 0 when unknown
	read  int64 // bytes consumed so far
}

// parseTSV reads every row from rd. want is the arity the rows must
// have (that of the relation they will extend), or -1 for any.
func parseTSV(name string, rd io.Reader, want int) (*tsvParser, error) {
	p := &tsvParser{name: name, want: want, arity: -1, hint: sizeHint(rd)}
	br := bufio.NewReaderSize(rd, maxLine)
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			return nil, bufio.ErrTooLong
		}
		p.read += int64(len(line))
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if len(line) > 0 {
			if perr := p.line(line); perr != nil {
				return nil, perr
			}
		}
		if err == io.EOF {
			return p, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// sizeHint reports how many bytes rd holds, when it can say cheaply.
func sizeHint(rd io.Reader) int64 {
	switch r := rd.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return 0
}

// line appends the values of one line (newline stripped). Fields of an
// optional sign and at most 18 digits are decoded in place; any other
// field goes to strconv.ParseInt, and a line holding a byte >= 0x80 is
// handed whole to unicodeLine, so values, field splits and error texts
// are those of strings.Fields and strconv.ParseInt.
func (p *tsvParser) line(b []byte) error {
	if p.arity > 0 && cap(p.data)-len(p.data) < p.arity {
		p.grow()
	}
	data, start := p.data, len(p.data)
	var ferr error
	for i := 0; ; {
		for i < len(b) && isSpace[b[i]] {
			i++
		}
		if i == len(b) {
			break
		}
		if len(data) == start && b[i] == '#' {
			return nil
		}
		j := i
		neg := b[j] == '-'
		if neg || b[j] == '+' {
			j++
		}
		d := j
		var v values.Value
		for j < len(b) && b[j]-'0' < 10 {
			v = v*10 + values.Value(b[j]-'0')
			j++
		}
		if neg {
			v = -v
		}
		if digits := j - d; digits == 0 || digits > 18 || j < len(b) && !isSpace[b[j]] {
			for ; j < len(b) && !isSpace[b[j]]; j++ {
				if b[j] >= utf8.RuneSelf {
					return p.unicodeLine(b)
				}
			}
			if ferr == nil {
				var err error
				if v, err = strconv.ParseInt(string(b[i:j]), 10, 64); err != nil {
					ferr = fmt.Errorf("database: relation %s: %w", p.name, err)
				}
			}
		}
		data = append(data, v)
		i = j
	}
	p.data = data
	n := len(data) - start
	if n == 0 {
		return nil
	}
	if err := p.row(n); err != nil {
		return err
	}
	return ferr
}

// unicodeLine is line for a line holding a byte >= 0x80, split as
// strings.Fields splits it (Unicode white space separates fields too).
func (p *tsvParser) unicodeLine(b []byte) error {
	s := strings.TrimSpace(string(b))
	if s == "" || s[0] == '#' {
		return nil
	}
	fields := strings.Fields(s)
	if err := p.row(len(fields)); err != nil {
		return err
	}
	for _, f := range fields {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return fmt.Errorf("database: relation %s: %w", p.name, err)
		}
		p.data = append(p.data, v)
	}
	return nil
}

// row checks the arity n of a non-blank line against the first row and
// against the relation the rows will extend.
func (p *tsvParser) row(n int) error {
	switch {
	case p.arity == -1 && p.want != -1 && n != p.want:
		return fmt.Errorf("database: relation %s has arity %d, rows have arity %d", p.name, p.want, n)
	case p.arity == -1:
		p.arity = n
	case n != p.arity:
		return fmt.Errorf("database: relation %s: row arity %d, expected %d", p.name, n, p.arity)
	}
	return nil
}

// grow makes room for at least one more row. Once a few thousand
// values are in, the capacity is the values per byte so far, projected
// over the bytes the size hint says remain, plus 3 %: a file of
// uniform rows is read into one array that holds it with little slack.
func (p *tsvParser) grow() {
	n := len(p.data)
	c := max(2*n, 4096)
	if n >= 4096 && p.hint > p.read {
		c = n + int(float64(n)*float64(p.hint-p.read)/float64(p.read)*1.03) + p.arity
	}
	data := make([]values.Value, n, c)
	copy(data, p.data)
	p.data = data
}
