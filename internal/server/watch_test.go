package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goalsAllow23 flips the port-23 ban to an allow: a one-tuple goal edit
// that keeps the universe, so watch mode serves it warm via rebase.
const goalsAllow23 = "port,perm,selector\n23,ALLOW,*\n"

// pollWatch runs one long-poll round and decodes the event (nil on 204).
func pollWatch(t *testing.T, client *http.Client, base, tenantID, op string, since int64) *WatchEvent {
	t.Helper()
	url := fmt.Sprintf("%s/t/%s/watch/%s?rev=%d", base, tenantID, op, since)
	res, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	switch res.StatusCode {
	case http.StatusNoContent:
		return nil
	case http.StatusOK:
		var ev WatchEvent
		if err := json.NewDecoder(res.Body).Decode(&ev); err != nil {
			t.Fatal(err)
		}
		return &ev
	default:
		t.Fatalf("watch %s: status %d", url, res.StatusCode)
		return nil
	}
}

// TestWatchLifecycle is the satellite acceptance: a watcher across a hot
// reload sees exactly one update per revision — never a torn or
// duplicate event — the update matches the cold answer for the new
// bundle, and a second reload keeps the sequence going.
func TestWatchLifecycle(t *testing.T) {
	dir := t.TempDir()
	goalsPath := tenantManifest(t, dir, "alpha", goalsBan23)
	s := multiTenantServer(t, dir, Options{
		Concurrency: 2, QueueDepth: 16, WatchPollTimeout: 2 * time.Second,
	})
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()
	client := hs.Client()

	// Baseline: the first poll returns revision 1 immediately, and its
	// verdict matches the cold direct execution of the same manifest.
	ev := pollWatch(t, client, hs.URL, "alpha", "reconcile", 0)
	if ev == nil || ev.Revision != 1 {
		t.Fatalf("baseline event = %+v, want revision 1", ev)
	}
	ref := refResponse(t, dir, "alpha", Request{Op: "reconcile"})
	if ev.Code != ref.Code || ev.Output != ref.Output {
		t.Fatalf("baseline differs from cold:\n--- cold ---\n%s\n--- watch ---\n%s", ref.Output, ev.Output)
	}
	if ev.Delta == nil || !ev.Delta.Cold || ev.Delta.Reason != "baseline" {
		t.Fatalf("baseline delta = %+v", ev.Delta)
	}

	// Re-polling with rev=1 blocks; a hot reload (the SIGHUP path is
	// Rescan) publishes exactly one revision-2 event to the waiting poll.
	type polled struct {
		ev  *WatchEvent
		idx int
	}
	events := make(chan polled, 4)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ { // three concurrent watchers, same op
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			events <- polled{pollWatch(t, client, hs.URL, "alpha", "reconcile", 1), idx}
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let the polls park
	if err := os.WriteFile(goalsPath, []byte(goalsAllow23), 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err := s.Registry().Rescan(); err != nil || len(rep.Reloaded) != 1 {
		t.Fatalf("rescan: %+v err=%v", rep, err)
	}
	wg.Wait()
	close(events)

	refB := refResponse(t, dir, "alpha", Request{Op: "reconcile"})
	n := 0
	for p := range events {
		n++
		if p.ev == nil || p.ev.Revision != 2 {
			t.Fatalf("watcher %d: event = %+v, want revision 2", p.idx, p.ev)
		}
		if p.ev.Code != refB.Code || p.ev.Output != refB.Output {
			t.Fatalf("watcher %d: update differs from cold reconcile of the new bundle", p.idx)
		}
		if p.ev.Delta == nil {
			t.Fatalf("watcher %d: no delta report", p.idx)
		}
		if p.ev.Delta.Cold {
			t.Fatalf("watcher %d: same-universe goal edit went cold: %+v", p.idx, p.ev.Delta)
		}
		if p.ev.Delta.GoalsAdded != 1 || p.ev.Delta.GoalsRemoved != 1 {
			t.Fatalf("watcher %d: goal churn = +%d/-%d, want +1/-1",
				p.idx, p.ev.Delta.GoalsAdded, p.ev.Delta.GoalsRemoved)
		}
	}
	if n != 3 {
		t.Fatalf("got %d events, want 3", n)
	}

	// An unchanged rescan publishes nothing: polling past revision 2 times
	// out empty rather than duplicating the last event.
	if _, err := s.Registry().Rescan(); err != nil {
		t.Fatal(err)
	}
	if ev := pollWatch(t, client, hs.URL, "alpha", "reconcile", 2); ev != nil {
		t.Fatalf("duplicate event after no-op rescan: %+v", ev)
	}

	// A watcher that missed revision 2 (rev=1) still gets it: sticky state,
	// not a broadcast-only bus.
	if ev := pollWatch(t, client, hs.URL, "alpha", "reconcile", 1); ev == nil || ev.Revision != 2 {
		t.Fatalf("late poll = %+v, want revision 2", ev)
	}
}

// TestWatchStreamAndDrain covers the SSE surface: a stream sees the
// baseline, then one update per reload in order, and Drain closes it
// with a terminal done event.
func TestWatchStreamAndDrain(t *testing.T) {
	dir := t.TempDir()
	goalsPath := tenantManifest(t, dir, "alpha", goalsBan23)
	s := multiTenantServer(t, dir, Options{Concurrency: 2, QueueDepth: 16})
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		hs.URL+"/t/alpha/watch/reconcile?stream=1", nil)
	res, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	type sse struct {
		name string
		ev   WatchEvent
	}
	stream := make(chan sse, 8)
	go func() {
		defer close(stream)
		sc := bufio.NewScanner(res.Body)
		var name string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				var ev WatchEvent
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					return
				}
				stream <- sse{name, ev}
			}
		}
	}()
	next := func(want string) WatchEvent {
		t.Helper()
		select {
		case e, ok := <-stream:
			if !ok {
				t.Fatal("stream closed early")
			}
			if e.name != want {
				t.Fatalf("event %q (rev %d), want %q", e.name, e.ev.Revision, want)
			}
			return e.ev
		case <-time.After(20 * time.Second):
			t.Fatalf("timed out waiting for %q event", want)
			return WatchEvent{}
		}
	}

	if ev := next("update"); ev.Revision != 1 {
		t.Fatalf("baseline revision = %d", ev.Revision)
	}
	// Two reloads; the stream must deliver revision 2 then 3, exactly once
	// each, in order.
	for i, goals := range []string{goalsBan24, goalsBan23} {
		if err := os.WriteFile(goalsPath, []byte(goals), 0o644); err != nil {
			t.Fatal(err)
		}
		if rep, err := s.Registry().Rescan(); err != nil || len(rep.Reloaded) != 1 {
			t.Fatalf("rescan %d: %+v err=%v", i, rep, err)
		}
		if ev := next("update"); ev.Revision != int64(2+i) {
			t.Fatalf("update %d: revision = %d, want %d", i, ev.Revision, 2+i)
		}
	}

	// Drain ends the stream with a terminal done event.
	s.Drain()
	ev := next("done")
	if !ev.Terminal || ev.Reason != "drain" {
		t.Fatalf("terminal event = %+v", ev)
	}
	if _, ok := <-stream; ok {
		t.Fatal("stream kept going after the terminal event")
	}

	// New watch requests are refused while draining.
	res2, err := hs.Client().Get(hs.URL + "/t/alpha/watch/reconcile")
	if err != nil {
		t.Fatal(err)
	}
	res2.Body.Close()
	if res2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("watch while draining: status %d, want 503", res2.StatusCode)
	}
}

// TestWatchEventBudget: an SSE watcher with ?events=1 gets one update
// and then a terminal budget event.
func TestWatchEventBudget(t *testing.T) {
	dir := t.TempDir()
	tenantManifest(t, dir, "alpha", goalsBan23)
	s := multiTenantServer(t, dir, Options{Concurrency: 2, QueueDepth: 16})
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()

	res, err := hs.Client().Get(hs.URL + "/t/alpha/watch/reconcile?stream=1&events=1")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	sc := bufio.NewScanner(res.Body)
	var names []string
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: ") {
			names = append(names, strings.TrimPrefix(sc.Text(), "event: "))
		}
	}
	want := []string{"update", "done"}
	if len(names) != len(want) || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("events = %v, want %v", names, want)
	}
}

// TestWatchValidation pins the error surface: bad op, bad tenant, bad
// method.
func TestWatchValidation(t *testing.T) {
	dir := t.TempDir()
	tenantManifest(t, dir, "alpha", goalsBan23)
	s := multiTenantServer(t, dir, Options{Concurrency: 1, QueueDepth: 4})
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()
	client := hs.Client()

	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/t/alpha/watch/frobnicate", http.StatusNotFound},
		{http.MethodGet, "/t/ghost/watch/reconcile", http.StatusBadRequest},
		{http.MethodPost, "/t/alpha/watch/reconcile", http.StatusMethodNotAllowed},
	} {
		req, _ := http.NewRequest(tc.method, hs.URL+tc.path, nil)
		res, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != tc.want {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, res.StatusCode, tc.want)
		}
	}
}

// TestWatchSubscribeRacingSwap: a subscription queued before a swap but
// run after it computes the new revision as its baseline, so the swap
// must not publish that revision again. The hub worker is parked on a
// job to fix the order: subscribe queued, then the reload's swap.
func TestWatchSubscribeRacingSwap(t *testing.T) {
	dir := t.TempDir()
	goalsPath := tenantManifest(t, dir, "alpha", goalsBan23)
	s := multiTenantServer(t, dir, Options{Concurrency: 1, QueueDepth: 4})
	defer s.Close()
	h := s.watch
	queued := func() int {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.queue)
	}

	parked, release := make(chan struct{}), make(chan struct{})
	h.enqueue(func() { close(parked); <-release })
	<-parked
	type subscribed struct {
		ow  *opWatch
		err error
	}
	sub := make(chan subscribed, 1)
	go func() {
		ow, err := h.ensure(context.Background(), "alpha", Request{Op: "reconcile"})
		sub <- subscribed{ow, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); queued() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("subscribe job never queued")
		}
	}
	if err := os.WriteFile(goalsPath, []byte(goalsAllow23), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, swapped, err := s.Registry().Reload("alpha", false); err != nil || !swapped {
		t.Fatalf("reload: swapped=%v err=%v", swapped, err)
	}
	if n := queued(); n != 2 {
		t.Fatalf("queued jobs = %d, want the subscribe and the swap", n)
	}
	close(release)
	r := <-sub
	if r.err != nil {
		t.Fatal(r.err)
	}
	drained := make(chan struct{})
	h.enqueue(func() { close(drained) }) // runs after the swap job
	<-drained

	if n := atomic.LoadInt64(&h.events); n != 1 {
		t.Fatalf("events published = %d, want 1", n)
	}
	ev, _ := h.current(r.ow)
	ref := refResponse(t, dir, "alpha", Request{Op: "reconcile"})
	if ev.Revision != 2 || ev.Delta == nil || ev.Delta.Reason != "baseline" || ev.Output != ref.Output {
		t.Fatalf("sticky event = revision %d delta %+v, want the revision-2 baseline", ev.Revision, ev.Delta)
	}
}

// TestWatchLateSubscriberSeesCurrentRevision: an op first watched after a
// same-universe reload starts from the tenant's current revision, not the
// one its hub cache was first built on.
func TestWatchLateSubscriberSeesCurrentRevision(t *testing.T) {
	dir := t.TempDir()
	goalsPath := tenantManifest(t, dir, "alpha", goalsBan23)
	s := multiTenantServer(t, dir, Options{Concurrency: 1, QueueDepth: 4, WatchPollTimeout: 2 * time.Second})
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()
	client := hs.Client()

	if ev := pollWatch(t, client, hs.URL, "alpha", "reconcile", 0); ev == nil || ev.Revision != 1 {
		t.Fatalf("baseline = %+v, want revision 1", ev)
	}
	check := Request{Op: "check", Party: "k8s"}
	oldRef := refResponse(t, dir, "alpha", check)
	if err := os.WriteFile(goalsPath, []byte(goalsAllow23), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, swapped, err := s.Registry().Reload("alpha", false); err != nil || !swapped {
		t.Fatalf("reload: swapped=%v err=%v", swapped, err)
	}
	if ev := pollWatch(t, client, hs.URL, "alpha", "reconcile", 1); ev == nil || ev.Revision != 2 || ev.Delta.Cold {
		t.Fatalf("reconcile update = %+v, want a warm revision 2", ev)
	}
	newRef := refResponse(t, dir, "alpha", check)
	if newRef.Output == oldRef.Output {
		t.Fatal("test setup: the check must answer differently on the two revisions")
	}
	res, err := client.Get(hs.URL + "/t/alpha/watch/check?party=k8s")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var ev WatchEvent
	if err := json.NewDecoder(res.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if ev.Revision != 2 || ev.Output != newRef.Output {
		t.Fatalf("late check subscription = revision %d answering\n%s\nwant revision 2 answering\n%s", ev.Revision, ev.Output, newRef.Output)
	}
}
