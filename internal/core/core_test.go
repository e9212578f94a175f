package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tcl"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

func newApp(t *testing.T, name string) (*core.App, *bytes.Buffer) {
	t.Helper()
	app, err := core.NewApp(core.Options{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	var out bytes.Buffer
	app.Interp.Out = &out
	return app, &out
}

// figure9 is the browse script of Figure 9 with its two exec escapes
// captured as prints (see examples/browser for the rationale).
const figure9 = `
scrollbar .scroll -command ".list view"
listbox .list -scroll ".scroll set" -relief raised -geometry 20x20
pack append . .scroll {right filly} .list {left expand fill}
proc browse {dir file} {
    if {[string compare $dir "."] != 0} {set file $dir/$file}
    if [file $file isdirectory] {
        print "DIR $file\n"
    } else {
        if [file $file isfile] {
            print "FILE $file\n"
        } else {
            print "$file isn't a directory or regular file\n"
        }
    }
}
if $argc>0 {set dir [index $argv 0]} else {set dir "."}
foreach i [exec ls -a $dir] {
    .list insert end $i
}
bind .list <space> {foreach i [selection get] {browse $dir $i}}
bind .list <Control-q> {destroy .}
`

// TestFigure9Browser runs the paper's 21-line directory browser script
// end to end against a real directory: fills the listbox with ls output,
// selects entries with the mouse, presses space to browse them, and
// quits with Control-q via the script's own binding.
func TestFigure9Browser(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"alpha.txt", "beta.txt"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "subdir"), 0o755); err != nil {
		t.Fatal(err)
	}

	app, out := newApp(t, "browse")
	app.Interp.SetGlobal("argv", tcl.FormatList([]string{dir}))
	app.Interp.SetGlobal("argc", "1")
	app.MustEval(figure9)
	app.Update()

	// ls -a: ".", "..", "alpha.txt", "beta.txt", "subdir".
	if got := app.MustEval(`.list size`); got != "5" {
		t.Fatalf("listbox size = %s, want 5", got)
	}
	if got := app.MustEval(`.list get 2`); got != "alpha.txt" {
		t.Fatalf("item 2 = %q", got)
	}

	// Select alpha.txt and beta.txt by dragging (rows 2 and 3; each row
	// is the font line height plus 2, below the 2-pixel border).
	lb, _ := app.NameToWindow(".list")
	font, err := app.FontByName("6x13")
	if err != nil {
		t.Fatal(err)
	}
	lh := font.LineHeight() + 2
	rx, ry := lb.RootCoords()
	app.Disp.WarpPointer(rx+30, ry+2+2*lh+lh/2)
	app.Disp.FakeButton(1, true)
	app.Disp.WarpPointer(rx+30, ry+2+3*lh+lh/2)
	app.Disp.FakeButton(1, false)
	app.Update()
	if got := app.MustEval(`selection get`); got != "alpha.txt\nbeta.txt" {
		t.Fatalf("selection = %q", got)
	}

	// Space browses each selected item via the script's proc.
	app.Disp.FakeKey(xproto.KsSpace, true)
	app.Disp.FakeKey(xproto.KsSpace, false)
	app.Update()
	if !strings.Contains(out.String(), "FILE "+dir+"/alpha.txt") ||
		!strings.Contains(out.String(), "FILE "+dir+"/beta.txt") {
		t.Fatalf("browse output = %q", out.String())
	}

	// A directory hits the DIR branch.
	out.Reset()
	app.MustEval(`.list select from 4`) // subdir
	app.Disp.FakeKey(xproto.KsSpace, true)
	app.Disp.FakeKey(xproto.KsSpace, false)
	app.Update()
	if !strings.Contains(out.String(), "DIR "+dir+"/subdir") {
		t.Fatalf("dir browse output = %q", out.String())
	}

	// Control-q destroys the application (line 21 of the figure).
	app.Disp.FakeKey(xproto.KsControlL, true)
	app.Disp.FakeKey('q', true)
	app.Disp.FakeKey('q', false)
	app.Update()
	if !app.Quitting() {
		t.Fatal("Control-q did not destroy the application")
	}
}

// TestFigure10Screenshot regenerates the paper's screen dump: the browser
// UI rendered to pixels, written to testdata/browser.ppm. The test
// verifies the image has the expected structure (title bar, listbox text,
// selection highlight, scrollbar).
func TestFigure10Screenshot(t *testing.T) {
	app, _ := newApp(t, "browse")
	app.MustEval(`wm title . browse`)
	app.MustEval(`
		scrollbar .scroll -command ".list view"
		listbox .list -scroll ".scroll set" -relief raised -geometry 20x20
		pack append . .scroll {right filly} .list {left expand fill}
	`)
	for _, it := range []string{".", "..", "Makefile", "browse", "main.c", "main.o", "notes"} {
		app.MustEval(`.list insert end ` + it)
	}
	app.MustEval(`.list select from 2`)
	app.MustEval(`.list select to 4`) // three darkened items, as in the figure
	app.Update()

	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := app.ScreenshotPPM(".", filepath.Join("testdata", "browser.ppm")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "browser.ppm"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("P6\n")) {
		t.Fatal("not a PPM file")
	}
	// Structural checks on the raw image.
	shot, err := app.Disp.Screenshot(app.Main.XID)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint32]int{}
	for i := 0; i+2 < len(shot.Pixels); i += 3 {
		px := uint32(shot.Pixels[i])<<16 | uint32(shot.Pixels[i+1])<<8 | uint32(shot.Pixels[i+2])
		counts[px]++
	}
	if counts[0xffe4c4] == 0 {
		t.Fatal("no Bisque1 widget background in screenshot")
	}
	if counts[0xb0c4de] < 100 {
		t.Fatalf("selection highlight missing (%d LightSteelBlue pixels)", counts[0xb0c4de])
	}
	if counts[0x000000] < 50 {
		t.Fatalf("text missing (%d black pixels)", counts[0x000000])
	}
	if counts[0x6a5acd] < 50 {
		t.Fatalf("window-manager title bar missing (%d pixels)", counts[0x6a5acd])
	}
}

// TestSendAcrossOSProcessesBoundary runs two applications in this process
// but over a real TCP connection to a shared server — the same byte
// stream two separate OS processes would use — and sends between them.
func TestSendAcrossTCP(t *testing.T) {
	srv := xserver.New(800, 600)
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a1, err := core.NewApp(core.Options{Name: "alpha", Display: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	a2, err := core.NewApp(core.Options{Name: "beta", Display: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()

	a2.MustEval(`proc greet {} {return "hello over TCP"}`)
	stop := a2.StartServing()
	got, err := a1.Send("beta", "greet")
	stop()
	if err != nil || got != "hello over TCP" {
		t.Fatalf("send over TCP: %q %v", got, err)
	}
}

// TestInterfaceEditingViaSend demonstrates §6's interface-editor idea: a
// second application queries and modifies a live application's interface
// with send — no mock-ups, no recompilation.
func TestInterfaceEditingViaSend(t *testing.T) {
	srv := xserver.New(800, 600)
	defer srv.Close()
	target, err := core.NewAppOnServer(srv, "app", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	editor, err := core.NewAppOnServer(srv, "editor", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer editor.Close()

	target.MustEval(`
		button .ok -text OK
		button .cancel -text Cancel
		pack append . .ok {left} .cancel {left}
	`)
	target.Update()

	stop := target.StartServing()
	// Query the live interface.
	if got, _ := editor.Send("app", `winfo children .`); got != ".ok .cancel" {
		t.Fatalf("children = %q", got)
	}
	// Change a widget's text and the window arrangement, live.
	if _, err := editor.Send("app", `.ok configure -text Confirm`); err != nil {
		t.Fatal(err)
	}
	if _, err := editor.Send("app", `pack unpack .cancel`); err != nil {
		t.Fatal(err)
	}
	got, _ := editor.Send("app", `lindex [.ok configure -text] 4`)
	stop()
	if got != "Confirm" {
		t.Fatalf("edited text = %q", got)
	}
	if target.MustEval(`pack slaves .`) != ".ok" {
		t.Fatal("pack unpack via send failed")
	}
}

// TestActiveSpreadsheetCells implements §6's spreadsheet sketch: cells
// contain embedded Tcl commands; evaluating the sheet executes them,
// fetching data from a separate application.
func TestActiveSpreadsheetCells(t *testing.T) {
	srv := xserver.New(800, 600)
	defer srv.Close()
	sheet, err := core.NewAppOnServer(srv, "sheet", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sheet.Close()
	db, err := core.NewAppOnServer(srv, "database", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	db.MustEval(`
		set prices(widget) 19
		set prices(gadget) 23
		proc price {item} {global prices; return $prices($item)}
	`)
	sheet.MustEval(`
		set cell(a1) {send database {price widget}}
		set cell(a2) {send database {price gadget}}
		set cell(a3) {expr [eval $cell(a1)] + [eval $cell(a2)]}
		proc recalc {} {
			global cell value
			foreach c [array names cell] {set value($c) [eval $cell($c)]}
		}
	`)
	stop := db.StartServing()
	sheet.MustEval(`recalc`)
	stop()
	if got := sheet.MustEval(`set value(a3)`); got != "42" {
		t.Fatalf("a3 = %q", got)
	}
}

// TestWishScriptFile exercises the wish startup path: a script read from
// a file with argv set, as "wish -f browse dir" does.
func TestWishScriptFile(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "hello.tcl")
	if err := os.WriteFile(script, []byte(`
		button .b -text [index $argv 0]
		pack append . .b {top}
		update
		set result [lindex [.b configure -text] 4]
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	app, _ := newApp(t, "hello")
	app.Interp.SetGlobal("argv", "from-args")
	app.Interp.SetGlobal("argc", "1")
	app.MustEval(`source ` + script)
	if got := app.MustEval(`set result`); got != "from-args" {
		t.Fatalf("result = %q", got)
	}
}

// TestDynamicInterfaceRebuild shows the paper's claim that "Tcl can be
// used to modify the entire widget configuration of an application at any
// time": the whole interface is torn down and rebuilt mid-run.
func TestDynamicInterfaceRebuild(t *testing.T) {
	app, _ := newApp(t, "dyn")
	app.MustEval(`
		label .top -text "diagnostics"
		button .go -text Go
		pack append . .top {top fillx} .go {bottom}
	`)
	app.Update()
	if app.MustEval(`pack slaves .`) != ".top .go" {
		t.Fatal("initial layout")
	}
	// Move the diagnostics window to the bottom — §5's example.
	app.MustEval(`
		pack unpack .top
		pack unpack .go
		pack append . .go {top} .top {bottom fillx}
	`)
	app.Update()
	if app.MustEval(`pack slaves .`) != ".go .top" {
		t.Fatal("rearranged layout")
	}
	// Tear everything down and build a different interface.
	app.MustEval(`destroy .top; destroy .go`)
	app.MustEval(`
		entry .e
		scrollbar .s -command ".e view"
		pack append . .e {top fillx} .s {bottom fillx}
	`)
	app.Update()
	if app.MustEval(`winfo children .`) != ".e .s" {
		t.Fatalf("rebuilt children = %q", app.MustEval(`winfo children .`))
	}
}

// TestInterfaceEditorScript covers the §6 interface-editor mechanics: the
// configure introspection contains enough to regenerate a widget, and
// the generated script rebuilds an equivalent interface.
func TestInterfaceEditorScript(t *testing.T) {
	app, _ := newApp(t, "emitter")
	app.MustEval(`button .b -text "Press me" -bg red -relief groove`)
	app.MustEval(`pack append . .b {top fillx}`)
	app.Update()

	// Build a creation command from non-default options.
	tuples, err := tcl.ParseList(app.MustEval(`.b configure`))
	if err != nil {
		t.Fatal(err)
	}
	script := "button .b"
	for _, tup := range tuples {
		f, _ := tcl.ParseList(tup)
		if len(f) != 5 {
			continue
		}
		if f[4] != f[3] {
			script += " " + f[0] + " " + tcl.QuoteElement(f[4])
		}
	}
	script += "\npack append . .b " + tcl.QuoteElement(app.MustEval(`lindex [pack info .] 1`))

	clone, _ := newApp(t, "clone")
	clone.MustEval(script)
	clone.Update()
	for _, opt := range []string{"-text", "-background", "-relief"} {
		want := app.MustEval(`lindex [.b configure ` + opt + `] 4`)
		got := clone.MustEval(`lindex [.b configure ` + opt + `] 4`)
		if got != want {
			t.Fatalf("cloned %s = %q, want %q", opt, got, want)
		}
	}
	if clone.MustEval(`pack info .`) != app.MustEval(`pack info .`) {
		t.Fatal("cloned layout differs")
	}
}

// TestNewAppErrors covers construction failure paths.
func TestNewAppErrors(t *testing.T) {
	if _, err := core.NewApp(core.Options{Name: "x", Display: "127.0.0.1:1"}); err == nil {
		t.Fatal("connecting to a dead display should fail")
	}
}

// TestScreenshotErrors covers the PPM helper's failure paths.
func TestScreenshotErrors(t *testing.T) {
	app, _ := newApp(t, "shot")
	if err := app.ScreenshotPPM(".nosuch", "/tmp/never.ppm"); err == nil {
		t.Fatal("bad window should fail")
	}
	if err := app.ScreenshotPPM(".", "/nonexistent-dir/x.ppm"); err == nil {
		t.Fatal("bad path should fail")
	}
}
