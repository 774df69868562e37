package server_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hyaline/internal/metricshttp"
	"hyaline/internal/protocol"
	"hyaline/internal/server"
)

// expositionLineRe is the Prometheus text exposition grammar: comment
// lines, and sample lines with optional labels and a float value.
var expositionLineRe = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?` +
		`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN))$`)

// scrape fetches one URL from the observability endpoint.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d (%s)", url, resp.StatusCode, body)
	}
	return string(body)
}

// sampleValue pulls one un-labelled sample line out of an exposition
// body.
func sampleValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("sample %q: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("exposition has no sample %q", name)
	return 0
}

// TestMetricsScrapeUnderLoad is the observability acceptance test: a
// server is scraped continuously over HTTP while 8 connections each SET
// keys and values unique to them and GET each one back in the same
// window, checking every reply by its position, and then idle until
// every one has parked. Run under -race this proves the scrape path
// (registry iteration, histogram snapshots, GaugeFunc sampling through
// server and KV internals) is safe against the serve path and the
// parks; afterwards the final exposition must parse per the text
// grammar and carry nonzero values for the key series.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	const conns = 8
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	_, srv, addr := testServer(t, "hashmap", "hyaline", server.Options{})
	ep := httptest.NewServer(metricshttp.Handler(srv.Metrics()))
	defer ep.Close()

	// Scraper: hammer /metrics until the workload is done. Grammar and
	// content checks happen on the main goroutine afterwards; here we
	// only require the scrape to succeed.
	done := make(chan struct{})
	scraperErr := make(chan error, 1)
	go func() {
		defer close(scraperErr)
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Get(ep.URL + "/metrics")
			if err != nil {
				scraperErr <- err
				return
			}
			_, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				scraperErr <- err
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for id := 0; id < conns; id++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("conn %d: %v", id, err)
		}
		defer c.Close()
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := protocol.NewWriter(c)
			rd := protocol.NewReader(c)
			for r := 0; r < rounds; r++ {
				key := uint64(id*rounds + r)
				w.Set(key, key*31+7)
				w.Get(key)
				if err := w.Flush(); err != nil {
					t.Errorf("conn %d: %v", id, err)
					return
				}
				set, err := rd.ReadFrame()
				if err != nil {
					t.Errorf("conn %d: %v", id, err)
					return
				}
				if protocol.Status(set.Code) != protocol.StatusOK || len(set.Payload) != 0 {
					t.Errorf("conn %d: SET %d reply %s %x, want an empty OK", id, key, protocol.Status(set.Code), set.Payload)
					return
				}
				get, err := rd.ReadFrame()
				if err != nil {
					t.Errorf("conn %d: %v", id, err)
					return
				}
				if v, err := protocol.U64(get.Payload); protocol.Status(get.Code) != protocol.StatusOK || err != nil || v != key*31+7 {
					t.Errorf("conn %d: GET %d reply %s %x, want OK %d", id, key, protocol.Status(get.Code), get.Payload, key*31+7)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if server.PollSupported() {
		// The idle phase: every conn parks while the scraper runs.
		waitFor(t, "every connection parks", func() bool {
			return metric(srv, "hyaline_server_conns_parked") == conns
		})
	}
	close(done)
	if err, ok := <-scraperErr; ok && err != nil {
		t.Fatalf("scraper: %v", err)
	}

	// Final exposition: grammar-clean, and the serving counters moved.
	text := scrape(t, ep.URL+"/metrics")
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		if !expositionLineRe.MatchString(sc.Text()) {
			t.Fatalf("/metrics line %d violates the exposition grammar: %q", n, sc.Text())
		}
	}
	sets := float64(conns * rounds)
	for name, min := range map[string]float64{
		"hyaline_server_ops_total":                2 * sets,
		"hyaline_server_batches_total":            1,
		"hyaline_server_conns_accepted_total":     conns,
		"hyaline_server_bytes_read_total":         1,
		"hyaline_server_bytes_written_total":      1,
		"hyaline_server_op_latency_seconds_count": 2 * sets,
		"hyaline_server_batch_ops_count":          1,
		"hyaline_kv_nodes_allocated_total":        sets,
	} {
		if v := sampleValue(t, text, name); v < min {
			t.Errorf("%s = %v, want >= %v", name, v, min)
		}
	}
	if server.PollSupported() {
		// Every conn parked at least once, and all sit parked now, with
		// the poller loop the one server goroutine left.
		if v := sampleValue(t, text, "hyaline_server_poll_rearms_total"); v < conns {
			t.Errorf("hyaline_server_poll_rearms_total = %v, want >= %d", v, conns)
		}
		if v := sampleValue(t, text, "hyaline_server_conns_parked"); v != conns {
			t.Errorf("hyaline_server_conns_parked = %v, want %d", v, conns)
		}
		if v := sampleValue(t, text, "hyaline_server_goroutines"); v != 1 {
			t.Errorf("hyaline_server_goroutines = %v, want 1", v)
		}
	}

	// /metrics.json is the same registry as parsed points.
	var points []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal([]byte(scrape(t, ep.URL+"/metrics.json")), &points); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	found := false
	for _, p := range points {
		if p.Name == "hyaline_server_ops_total" {
			found = true
		}
	}
	if !found {
		t.Error("/metrics.json has no hyaline_server_ops_total point")
	}

	// pprof rides the same mux.
	if body := scrape(t, ep.URL+"/debug/pprof/goroutine?debug=1"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/goroutine?debug=1 body %.80q", body)
	}
}
