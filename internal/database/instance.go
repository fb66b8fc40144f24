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

// ReadRelation parses whitespace-separated rows of integers from rd into
// the named relation. Lines starting with '#' and blank lines are
// skipped. All rows must have the same arity.
func (in *Instance) ReadRelation(name string, rd io.Reader) error {
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
// layout WriteDir produces) and returns how many relations it loaded;
// other entries are skipped. A directory without any .tsv file is an
// error: a mistyped path must not boot an empty instance.
func (in *Instance) ReadDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	loaded := 0
	for _, ent := range entries {
		name, isTSV := strings.CutSuffix(ent.Name(), ".tsv")
		if ent.IsDir() || !isTSV {
			continue
		}
		f, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			return loaded, err
		}
		err = in.ReadRelation(name, f)
		f.Close()
		if err != nil {
			return loaded, err
		}
		loaded++
	}
	if loaded == 0 {
		return 0, fmt.Errorf("no .tsv files in %s", dir)
	}
	return loaded, nil
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
