package database

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"rankedaccess/internal/par"
	"rankedaccess/internal/values"
)

// Instance is a database instance: a relation per symbol plus an optional
// value dictionary for string domains.
type Instance struct {
	rels map[string]*Relation
	// Dict translates string constants to codes. May be nil for purely
	// numeric instances, where the code *is* the number and the numeric
	// order is the domain order.
	Dict *values.Dict
}

// NewInstance returns an empty instance.
func NewInstance() *Instance {
	return &Instance{rels: make(map[string]*Relation)}
}

// SetRelation installs (or replaces) the relation for a symbol.
func (in *Instance) SetRelation(name string, r *Relation) { in.rels[name] = r }

// Relation returns the relation for a symbol, or nil.
func (in *Instance) Relation(name string) *Relation { return in.rels[name] }

// Names returns the relation symbols in sorted order.
func (in *Instance) Names() []string {
	out := make([]string, 0, len(in.rels))
	for n := range in.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Size returns n: the total number of tuples across relations.
func (in *Instance) Size() int {
	n := 0
	for _, r := range in.rels {
		n += r.Len()
	}
	return n
}

// Clone deep-copies the instance (the dictionary is shared: it is
// append-only).
func (in *Instance) Clone() *Instance {
	out := NewInstance()
	out.Dict = in.Dict
	for n, r := range in.rels {
		out.rels[n] = r.Clone()
	}
	return out
}

// AddRow appends a numeric row to the named relation, creating the
// relation on first use.
func (in *Instance) AddRow(name string, row ...values.Value) {
	r := in.rels[name]
	if r == nil {
		r = NewRelation(len(row))
		in.rels[name] = r
	}
	r.Append(row...)
}

// DeleteRow removes every occurrence of the row from the named
// relation, returning the number removed (0 when the relation does not
// exist or the arity disagrees).
func (in *Instance) DeleteRow(name string, row ...values.Value) int {
	r := in.rels[name]
	if r == nil || r.Arity() != len(row) {
		return 0
	}
	return r.RemoveAll(row)
}

// AddNamedRow appends a row of string constants, interning them in the
// instance dictionary (created on first use). Note that Intern assigns
// codes in first-seen order; callers that need the domain order to match
// the lexicographic string order should pre-build the dictionary with
// values.SortedDict and assign it to Dict before loading.
func (in *Instance) AddNamedRow(name string, row ...string) {
	if in.Dict == nil {
		in.Dict = values.NewDict()
	}
	vals := make([]values.Value, len(row))
	for i, s := range row {
		vals[i] = in.Dict.Intern(s)
	}
	in.AddRow(name, vals...)
}

// ReadRelation parses rows of whitespace-separated signed 64-bit
// decimal integers from rd and appends them to the named relation,
// creating it on the first row. Blank lines and lines whose first
// non-blank character is '#' are skipped; a line longer than 1 MiB is
// refused with bufio.ErrTooLong. All rows must have the same arity,
// and so must the relation they extend. Nothing is installed until the
// whole input parses: on error the instance is unchanged.
func (in *Instance) ReadRelation(name string, rd io.Reader) error {
	p, err := parseTSV(name, rd, in.arityOf(name))
	if err != nil {
		return err
	}
	in.install(p)
	return nil
}

// arityOf returns the arity of the named relation, or -1 when there is
// none.
func (in *Instance) arityOf(name string) int {
	if r := in.rels[name]; r != nil {
		return r.Arity()
	}
	return -1
}

// install appends parsed rows to their relation, creating it through
// FromFlat; parsed input without rows installs nothing.
func (in *Instance) install(p *tsvParser) {
	if p.arity == -1 {
		return
	}
	if r := in.rels[p.name]; r != nil {
		r.data = append(r.data, p.data...)
		return
	}
	r, err := FromFlat(p.arity, p.data)
	if err != nil {
		panic(err) // the parser checked every row's arity
	}
	in.rels[p.name] = r
}

// WriteRelation writes the named relation as whitespace-separated rows.
func (in *Instance) WriteRelation(name string, w io.Writer) error {
	r := in.rels[name]
	if r == nil {
		return fmt.Errorf("database: no relation %s", name)
	}
	bw := bufio.NewWriter(w)
	n := r.Len()
	for i := 0; i < n; i++ {
		t := r.Tuple(i)
		for j, v := range t {
			if j > 0 {
				if _, err := bw.WriteString("\t"); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatInt(v, 10)); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadDir loads every <Name>.tsv file in dir as relation <Name> (the
// layout WriteDir produces, each file read as ReadRelation reads it)
// and returns how many relations it loaded; other entries are skipped.
// The files are parsed in parallel (internal/par), each into an array
// sized from its length, and installed in directory order only once
// all of them parse: on error, the first in directory order is
// returned and the instance is unchanged. A directory without any .tsv
// file is an error: a mistyped path must not boot an empty instance.
func (in *Instance) ReadDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var names []string
	for _, ent := range entries {
		if name, isTSV := strings.CutSuffix(ent.Name(), ".tsv"); isTSV && !ent.IsDir() {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return 0, fmt.Errorf("no .tsv files in %s", dir)
	}
	parsed := make([]*tsvParser, len(names))
	err = par.DoErr(len(names), func(i int) error {
		f, err := os.Open(filepath.Join(dir, names[i]+".tsv"))
		if err != nil {
			return err
		}
		defer f.Close()
		parsed[i], err = parseTSV(names[i], f, in.arityOf(names[i]))
		return err
	})
	if err != nil {
		return 0, err
	}
	for _, p := range parsed {
		in.install(p)
	}
	return len(names), nil
}

// WriteDir writes every relation as dir/<Name>.tsv, creating dir as
// needed.
func (in *Instance) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range in.Names() {
		f, err := os.Create(filepath.Join(dir, name+".tsv"))
		if err != nil {
			return err
		}
		if err := in.WriteRelation(name, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
