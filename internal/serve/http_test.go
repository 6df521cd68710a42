package serve

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func startHTTP(t *testing.T, cfgs ...ShardConfig) (*Manager, *Client) {
	t.Helper()
	m := startManager(t, cfgs...)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)
	return m, NewClient(srv.URL, srv.Client())
}

// TestHTTPEndToEnd drives the full stack — Client -> handler -> manager
// -> shard -> simulation — including concurrent queries.
func TestHTTPEndToEnd(t *testing.T) {
	_, c := startHTTP(t, testShardConfig("s0", 1), testShardConfig("s1", 2))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	infos, err := c.Shards(ctx)
	if err != nil || len(infos) != 2 {
		t.Fatalf("shards: %v, %v", infos, err)
	}

	const n = 16
	var wg sync.WaitGroup
	resps := make([]*Response, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			typ, lo, hi := spread(i)
			resps[i], errs[i] = c.QueryRange(ctx, typ.String(), lo, hi)
		}(i)
	}
	wg.Wait()
	shardsSeen := map[string]bool{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if resps[i].AnsweredEpoch <= 0 {
			t.Fatalf("query %d: answered at epoch %d", i, resps[i].AnsweredEpoch)
		}
		shardsSeen[resps[i].Shard] = true
	}
	if len(shardsSeen) != 2 {
		t.Fatalf("round-robin used shards %v, want both", shardsSeen)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, st := range stats.Shards {
		total += st.QueriesServed
	}
	if total != n {
		t.Fatalf("stats count %d queries served, want %d", total, n)
	}
}

// TestHTTPSpanDefaultsAndPinning checks omitted lo/hi default to the
// sensor span and that shard pinning works over the wire.
func TestHTTPSpanDefaultsAndPinning(t *testing.T) {
	_, c := startHTTP(t, testShardConfig("s0", 1), testShardConfig("s1", 2))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	r, err := c.Query(ctx, QueryRequestWire{Shard: "s1", Type: "humidity"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Shard != "s1" {
		t.Fatalf("pinned to s1, served by %q", r.Shard)
	}
	if r.Lo != 0 || r.Hi != 100 {
		t.Fatalf("span defaults [%v, %v], want [0, 100]", r.Lo, r.Hi)
	}
}

// TestHTTPErrors checks the error statuses clients see.
func TestHTTPErrors(t *testing.T) {
	_, c := startHTTP(t, testShardConfig("s0", 1))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := c.Query(ctx, QueryRequestWire{Type: "pressure"}); err == nil ||
		!strings.Contains(err.Error(), "unknown sensor type") {
		t.Fatalf("unknown type: %v", err)
	}
	lo, hi := 5.0, 1.0
	if _, err := c.Query(ctx, QueryRequestWire{Type: "temperature", Lo: &lo, Hi: &hi}); err == nil ||
		!strings.Contains(err.Error(), "empty range") {
		t.Fatalf("empty range: %v", err)
	}
	if _, err := c.Query(ctx, QueryRequestWire{Shard: "nope", Type: "temperature"}); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown shard: %v", err)
	}
}

// TestHTTPQueryBodyLimits: POST /query answers 413 to a body past
// maxQueryBody and 400 to a field the wire format does not define, before
// any query is admitted.
func TestHTTPQueryBodyLimits(t *testing.T) {
	m := startManager(t, testShardConfig("s0", 1))
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(msg)
	}

	oversized := `{"type":"temperature","shard":"` + strings.Repeat("x", maxQueryBody) + `"}`
	if code, msg := post(oversized); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d (%s), want 413", code, msg)
	}
	if code, msg := post(`{"type":"temperature","bogus":1}`); code != http.StatusBadRequest ||
		!strings.Contains(msg, "unknown field") {
		t.Errorf("unknown field: status %d (%s), want 400 naming the field", code, msg)
	}
	for _, st := range m.Stats() {
		if st.QueriesServed != 0 {
			t.Errorf("shard %s served %d queries from rejected bodies", st.ID, st.QueriesServed)
		}
	}
	if code, msg := post(`{"type":"temperature"}`); code != http.StatusOK {
		t.Errorf("well-formed query after rejections: status %d (%s)", code, msg)
	}
}

// TestServerCutsOffSlowHeaders: a client that starts a request and never
// finishes its headers is disconnected once ReadHeaderTimeout passes,
// instead of holding the connection open.
func TestServerCutsOffSlowHeaders(t *testing.T) {
	srv := NewServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("NewServer timeouts: read-header %v, idle %v; want both set",
			srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond // keep the test fast
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-served
	})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: dirqd\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	start := time.Now()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection still open after %v: %v", time.Since(start), err)
	}
}
