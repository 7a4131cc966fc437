package service

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mrclone/internal/service/spec"
)

// TestUnreadSubscriptionBacklogBounded subscribes to a 40-cell matrix and
// reads nothing until it is done. Every landed cell publishes a progress
// and then a cells frame, so coalescing only same-type neighbours would
// hold two frames per cell; the pending backlog must instead be the state
// transitions plus at most one progress and one cells frame, delivered
// with done counts that never decrease.
func TestUnreadSubscriptionBacklogBounded(t *testing.T) {
	s, release, _ := blockingService(Config{Workers: 1, GCInterval: -1})
	defer closeService(t, s)

	var points []spec.Point
	for i := 0; i < 20; i++ {
		points = append(points, spec.Point{X: float64(i), Machines: 20 + i})
	}
	sp := overlapSpec(points) // 20 points × 2 runs = 40 cells
	st, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := s.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	close(release) // every frame of the run is published live
	waitState(t, s, st.ID, StateDone)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var frames []Event
	for {
		e, ok := sub.Next(ctx)
		if !ok {
			break
		}
		frames = append(frames, e)
	}
	transitions, done := 0, 0
	for _, e := range frames {
		if !coalescable(e.Type) {
			transitions++
		}
		if e.Done < done {
			t.Fatalf("done count fell from %d to %d in %+v", done, e.Done, frames)
		}
		done = e.Done
	}
	if last := frames[len(frames)-1]; last.Type != EventDone || last.Done != 40 {
		t.Fatalf("stream ended with %+v, want done at 40 cells", last)
	}
	if len(frames) > transitions+2 {
		types := make([]EventType, len(frames))
		for i, e := range frames {
			types[i] = e.Type
		}
		t.Fatalf("unread subscription held %d frames, want at most %d: %v", len(frames), transitions+2, types)
	}
}

// TestEventStreamDisconnectUnsubscribes opens and drops 50 HTTP event
// streams against a job held running. Each stream's handler must take its
// subscription off the job once its client goes away, so later frames are
// not published, under the service lock, to readers that are gone.
func TestEventStreamDisconnectUnsubscribes(t *testing.T) {
	s, release, _ := blockingService(Config{Workers: 1, GCInterval: -1})
	defer closeService(t, s)
	defer close(release)
	st, err := s.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning)

	srv := httptest.NewServer(s.Handler())
	for i := 0; i < 50; i++ {
		resp, err := http.Get(srv.URL + "/v1/matrices/" + st.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(resp.Body).ReadString('\n')
		if err != nil || line != "event: queued\n" {
			t.Fatalf("stream %d opened with %q, %v; want the replayed queued frame", i, line, err)
		}
		resp.Body.Close()
	}
	srv.Close() // returns once every stream's handler has returned

	s.mu.Lock()
	n := len(s.jobs[st.ID].subs)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("running job holds %d subscriptions after its 50 streams disconnected, want 0", n)
	}
}
