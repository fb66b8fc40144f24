package serve

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rankedaccess/client"
)

// noLeaks is internal/rpc's goroutine-leak assertion around whole
// process lives: the returned func fails the test unless the goroutine
// count is back at its settled starting value.
func noLeaks(t *testing.T) func() {
	base := runtime.NumGoroutine()
	for settled := 0; settled < 3; time.Sleep(20 * time.Millisecond) {
		if n := runtime.NumGoroutine(); n == base {
			settled++
		} else {
			base, settled = n, 0
		}
	}
	return func() {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines after Shutdown, baseline %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
		}
	}
}

// TestProcessDrainsUnderLoad calls Shutdown with a full NDJSON stream and
// two closed-loop readers in flight: the stream gets every row, every
// request a reader sent before the drain began is answered 200, and
// nothing is cut off inside the drain window.
func TestProcessDrainsUnderLoad(t *testing.T) {
	defer noLeaks(t)()
	_, data := procData(t)
	p := boot(t, func(c *RunConfig) { c.DataDir = data })
	addr := p.Addr()
	_, pq := registerQ(t, addr)
	cur, err := pq.Cursor(bg, 0)
	check(t, err)

	var draining atomic.Bool
	var wg sync.WaitGroup
	started := make(chan struct{}, 3) // one send per goroutine below
	wg.Add(3)
	go func() {
		defer wg.Done()
		first := sync.OnceFunc(func() { started <- struct{}{} })
		got, err := cur.Stream(bg, int(cur.Total()), func([]client.Value) error { first(); return nil })
		if err != nil || int64(got) != cur.Total() {
			t.Errorf("stream in flight at Shutdown: %d of %d rows, %v", got, cur.Total(), err)
		}
	}()
	for r := 0; r < 2; r++ {
		go func() {
			defer wg.Done()
			first := sync.OnceFunc(func() { started <- struct{}{} })
			for k := int64(0); ; k++ {
				resp, err := http.Post("http://"+addr+"/v1/queries/q/access", "application/json",
					strings.NewReader(fmt.Sprintf(`{"ks":[%d]}`, k%pq.Info.Total)))
				if err != nil {
					// Refused, or sent on a connection the drain had just
					// closed: how a closed-loop reader learns to stop.
					if !draining.Load() {
						t.Errorf("reader before Shutdown: %v", err)
					}
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("reader: status %d", resp.StatusCode)
					return
				}
				first()
			}
		}()
	}
	for i := 0; i < 3; i++ {
		<-started
	}
	draining.Store(true)
	shutdown(t, p)
	wg.Wait()
}
