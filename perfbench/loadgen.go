package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator runs in the benchmark's process, next to the server.
// A separate process was tried: at saturation it competed with the server's
// threads for the two CPUs through the OS scheduler, and run-to-run spreads
// grew; in process, its goroutines block in the network poller until a
// reply arrives. Its own garbage is kept small (see post).

// outcome is what the client observed for one request. Times are since the
// start of the load phase. In a closed loop a request is due when its caller
// sends it, so its latency is done - send. free is when the caller's
// previous reply was in, so send - free is the load generator's own work in
// between: decoding and checking that reply.
type outcome struct {
	req       int // index into the cycled requests
	status    int
	kind      string
	tokens    int
	diags     int
	hasTree   bool // the envelope carries a tree
	treeMatch bool // ... equal to the reference tree's String()
	elapsedNS int64
	free      time.Duration
	send      time.Duration
	done      time.Duration
	err       string
}

// loadFrom runs callers against the server at addr for the given time.
// Each caller owns a keep-alive connection, takes the next request of the
// cycled reqs (next counts the requests taken, across calls) and sends it
// as soon as its previous reply is in. The outcomes come back in the order
// the requests were sent, timed from the call.
func loadFrom(addr string, callers int, seconds float64, reqs []request, next *atomic.Int64) ([]outcome, error) {
	duration := time.Duration(seconds * float64(time.Second))
	var mu sync.Mutex
	var outs []outcome
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < min(callers, runtime.NumCPU()); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tp.CloseIdleConnections()
			client := &http.Client{Transport: tp, Timeout: 60 * time.Second}
			var buf bytes.Buffer
			free := time.Since(start)
			for free < duration {
				i := int(next.Add(1)-1) % len(reqs)
				o := post(client, &buf, addr, reqs[i], start)
				o.req, o.free = i, free
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
				free = o.done
				if o.err != "" {
					free = time.Since(start)
				}
			}
		}()
	}
	wg.Wait()
	if len(outs) == 0 {
		return nil, fmt.Errorf("no request was sent")
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].send < outs[j].send })
	return outs, nil
}

// post sends one request. It is sent at the clock read just before
// client.Post and done when the response body has been read in full;
// decoding the envelope happens after that, skipping the tree: a tree is
// checked by finding the reference's exact JSON encoding in the body.
func post(client *http.Client, buf *bytes.Buffer, addr string, r request, start time.Time) outcome {
	var q []string
	if r.recover {
		q = append(q, "recover=1")
	}
	if r.tree {
		q = append(q, "tree=1")
	}
	url := "http://" + addr + "/parse/" + r.d.lang.name
	if len(q) > 0 {
		url += "?" + strings.Join(q, "&")
	}
	o := outcome{send: time.Since(start)}
	resp, err := client.Post(url, "application/octet-stream", strings.NewReader(r.d.src))
	if err != nil {
		o.err = err.Error()
		return o
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	o.done = time.Since(start)
	if err != nil {
		o.err = err.Error()
		return o
	}
	o.status = resp.StatusCode
	body := buf.Bytes()
	var env struct {
		Kind        string     `json:"kind"`
		Tokens      int        `json:"tokens"`
		Diagnostics []struct{} `json:"diagnostics"`
		ElapsedNS   int64      `json:"elapsed_ns"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		o.err = fmt.Sprintf("decoding %d response: %v", resp.StatusCode, err)
		return o
	}
	o.kind, o.tokens, o.diags, o.elapsedNS = env.Kind, env.Tokens, len(env.Diagnostics), env.ElapsedNS
	o.hasTree = bytes.Contains(body, []byte(`"tree":"`))
	o.treeMatch = r.d.treeField != nil && bytes.Contains(body, r.d.treeField)
	return o
}
