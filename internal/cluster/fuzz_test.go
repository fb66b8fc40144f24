package cluster

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParse: the -cluster file serve.Start loads never panics the
// parser, and a layout it accepts (defaults resolved, every shard owned
// once) marshals to JSON that parses back to the same layout. The one
// layout JSON cannot say explicitly is skipped: rendezvous placement may
// leave a node idle, and an explicit config must list shards for every
// node or for none.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		`{"shards": 8, "nodes": [{"addr": "a:1"}, {"addr": "b:1"}, {"addr": "c:1"}]}`,
		`{"shards": 4, "nodes": [{"addr": "127.0.0.1:9101", "shards": [0, 2]}, {"addr": "127.0.0.1:9102", "shards": [3, 1]}]}`,
		`{"shards": 0, "nodes": [{"addr": "a:1"}]}`,
		`{"shards": 2, "nodes": []}`,
		`{"shards": 2, "nodes": [{"addr": "a:1"}, {"addr": "a:1"}]}`,
		`{"shards": 2, "nodes": [{"addr": "a:1", "shards": [0]}, {"addr": "b:1"}]}`,
		`{"shards": 2, "nodes": [{"addr": "a:1", "shards": [0, 1]}, {"addr": "b:1", "shards": [1]}]}`,
		`{"shards": 2, "nodes": [{"addr": "a:1", "shards": [0, 7]}, {"addr": "b:1", "shards": [-1]}]}`,
		`{"shards": 1e9, "nodes": [{"addr": ""}]}`,
		`{"shArds":1,"nodes":[{"Addr":"00"},{"Addr":"0"}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		if err != nil {
			return
		}
		for s := 0; s < c.Shards; s++ {
			if o := c.Owner(s); o < 0 || o >= len(c.Nodes) {
				t.Fatalf("Parse(%s): shard %d owned by node %d of %d", data, s, o, len(c.Nodes))
			}
		}
		for _, n := range c.Nodes {
			if len(n.Shards) == 0 {
				return
			}
		}
		text, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Parse(text)
		if err != nil || !reflect.DeepEqual(c, again) {
			t.Fatalf("Parse(%s) marshals to %s, which parses to %+v, %v", data, text, again, err)
		}
	})
}
