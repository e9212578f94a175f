package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tcl"
	"repro/internal/xproto"
)

// The toolkit's flush points decide how many wire segments, each one a
// latency-charged exchange on a slow link, a script-level action costs.
// These tests pin them by counting: DoOneEvent flushes at entry;
// UpdateIdleTasks flushes at its end; inside Update each round's output
// rides to the server on the next round's Sync; Update never returns
// with requests buffered.

// keyedEditor builds an entry whose <KeyPress> binding runs script, and
// gives the entry the focus.
func keyedEditor(t *testing.T, script string) *core.App {
	t.Helper()
	app, _ := newApp(t, "keyed")
	app.MustEval(`text .t -width 40 -height 8`)
	app.MustEval(`entry .e -width 20`)
	app.MustEval(`pack append . .t {top} .e {top}`)
	app.MustEval(`bind .e <KeyPress> {` + script + `}`)
	app.MustEval(`focus .e`)
	app.Update()
	return app
}

// keystroke is one editor action: a key press and release, then the
// idle redraw, then update.
func keystroke(app *core.App, ks xproto.Keysym) {
	app.Disp.FakeKey(ks, true)
	app.Disp.FakeKey(ks, false)
	app.UpdateIdleTasks()
	app.Update()
}

// counts returns the server's wire segments and requests and the
// client's requests and round trips.
func counts(app *core.App) (segments, srvRequests, cliRequests, roundtrips uint64) {
	s, c := app.Server.Metrics(), app.Disp.Metrics()
	return s.Counter("segments").Value(), s.Counter("requests").Value(),
		c.Counter("requests").Value(), c.Counter("roundtrips").Value()
}

// waitServerCaughtUp waits until the server has dispatched every request
// the client issued. It times out only if some request never reached
// the wire, which is what a caller that left output buffered looks like.
func waitServerCaughtUp(t *testing.T, app *core.App, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, srv, cli, _ := counts(app)
		if srv == cli {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: server dispatched %d requests, client issued %d: output left buffered", what, srv, cli)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKeystrokeSegments pins the wire cost of a keystroke whose binding
// edits a text widget: one segment for the two FakeKeys (flushed by
// UpdateIdleTasks), one for Update's first Sync, and one for the second
// Sync carrying the idle redraw — 3 segments and 2 round trips.
func TestKeystrokeSegments(t *testing.T) {
	app := keyedEditor(t, `.t insert end "%A\n"`)
	keystroke(app, 'a') // warm the resource caches
	for i, ks := range []xproto.Keysym{'b', 'c', 'd'} {
		seg0, _, _, rt0 := counts(app)
		keystroke(app, ks)
		seg1, srv, cli, rt1 := counts(app)
		if got := seg1 - seg0; got != 3 {
			t.Errorf("keystroke %d: %d wire segments, want 3", i, got)
		}
		if got := rt1 - rt0; got != 2 {
			t.Errorf("keystroke %d: %d round trips, want 2", i, got)
		}
		if srv != cli {
			t.Errorf("keystroke %d: after Update the server dispatched %d requests, client issued %d", i, srv, cli)
		}
	}
	if got := app.MustEval(`.e get`); got != "abcd" {
		t.Fatalf("entry holds %q, want abcd", got)
	}
	if got := app.MustEval(`.t get 1.0 end`); got != "a\nb\nc\nd\n" {
		t.Fatalf("text holds %q", got)
	}
}

// TestUpdateFlushesOnQuit covers Update's early return: a binding that
// ends the application stops the update mid-round, and the requests the
// round issued must still reach the server. `destroy .` flushes as part
// of the teardown; a Go-level App.Quit does not, so there Update's own
// flush is what delivers the binding's SetInputFocus.
func TestUpdateFlushesOnQuit(t *testing.T) {
	for _, tc := range []struct{ name, binding string }{
		{"destroy", `.t insert end "%A\n"; destroy .`},
		{"quit", `focus .t; quit`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			app := keyedEditor(t, tc.binding)
			app.Interp.Register("quit", func(*tcl.Interp, []string) (string, error) {
				app.Quit()
				return "", nil
			})
			app.Disp.FakeKey('q', true)
			app.Disp.FakeKey('q', false)
			app.Update()
			if !app.Quitting() {
				t.Fatal("the binding did not end the application")
			}
			waitServerCaughtUp(t, app, "Update returning on Quitting")
		})
	}
}

// TestDoOneEventFlushes pins the exported DoOneEvent's contract: it
// flushes at entry, so a one-way request the caller buffered reaches
// the server even when there is nothing to dispatch.
func TestDoOneEventFlushes(t *testing.T) {
	app, _ := newApp(t, "flush")
	app.Update()
	bells := app.Server.Metrics().Counter("requests.Bell")
	before := bells.Value()
	app.Disp.Bell()
	app.DoOneEvent(false)
	waitServerCaughtUp(t, app, "DoOneEvent(false)")
	if got := bells.Value() - before; got != 1 {
		t.Fatalf("server dispatched %d Bell requests, want 1", got)
	}
}
