package metrics

import (
	"strings"
	"testing"
)

// expose renders parsed samples back into the exposition format with the
// writer's own label and float encoders.
func expose(samples []Sample) string {
	var b strings.Builder
	labels := func(m map[string]string) string {
		var pairs []string
		for _, k := range sortedKeys(m) {
			pairs = append(pairs, k, m[k])
		}
		return renderLabelSet(pairs)
	}
	for _, s := range samples {
		b.WriteString(s.Name + labels(s.Labels) + " " + formatFloat(s.Value))
		if ex := s.Exemplar; ex != nil {
			set := labels(ex.Labels)
			if set == "" {
				set = "{}" // an exemplar's label set is mandatory, even empty
			}
			b.WriteString(" # " + set + " " + formatFloat(ex.Value))
			if ex.Ts != 0 {
				b.WriteString(" " + formatFloat(ex.Ts))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FuzzParseText: the parser cmd/dash points at any /metrics URL never
// panics, and a document it accepts re-renders to one that parses to the
// same samples.
func FuzzParseText(f *testing.F) {
	for _, s := range []string{
		"t_x_total{k=\"v\"} 1\nt_inf +Inf\nt_neg -Inf\nt_nan NaN\n",
		"# HELP x_bucket help text\n# TYPE x_bucket histogram\nx_bucket{le=\"1\"} 3 # {trace_id=\"ab\"} 0.5 1700000000.123\nx_bucket{le=\"+Inf\"} 4 # {trace_id=\"cd\"} 2\nx_count 4\n",
		"t{a=\"q\\\"uo\\\\te\\n\",b=\"\"} 0x1p-2\n",
		"9bad 1", "name{k=v} 1", `name{k="v} 1`, `name{k="v"} x`, `name{k="v"}`, "# TYPE name nonsense", `name{k="a",k="b"} 1`,
		`x_bucket{le="1"} 3 # 0.5`, `x_bucket{le="1"} 3 # {trace_id="ab"}`, `x_bucket{le="1"} 3 # {trace_id="ab"} 0.5 1 2`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		samples, err := ParseText(strings.NewReader(doc))
		if err != nil {
			return
		}
		text := expose(samples)
		again, err := ParseText(strings.NewReader(text))
		if err != nil {
			t.Fatalf("ParseText(%q) re-renders to %q, which does not parse: %v", doc, text, err)
		}
		if expose(again) != text || len(again) != len(samples) {
			t.Fatalf("ParseText(%q) re-renders to %q, which parses to different samples %q", doc, text, expose(again))
		}
	})
}
