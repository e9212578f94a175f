package widget

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tcl"
	"repro/internal/tk"
	"repro/internal/xproto"
)

// Canvas implements the drawing surface the paper lists as planned work
// for wish (§5: "I plan to enhance wish with drawing commands for shapes
// and text; once this is done it will be possible to code a large class
// of interesting applications entirely in Tcl"). It is a structured
// graphics widget: items (lines, rectangles, ovals, polygons, text) are
// created and manipulated from Tcl, identified by integer ids and
// free-form tags, and individual items can have their own event bindings
// — which is exactly the hook the paper's hypertext sketch needs
// ("associating Tcl commands with pieces of text or graphics").
//
// Redisplay is damage-driven, as in X and Tk: each item command records
// the old and new extent of the items it touches, and the idle redraw
// repaints only those rectangles — background, then every item that can
// touch them, in stacking order — in a scratch pixmap, and copies them
// to the window. Full damage (first draw, Expose, resize,
// reconfiguration) repaints the whole window directly.
type Canvas struct {
	base
	items  []*canvasItem
	nextID int
	// itemBindings: tag or id → event spec → script.
	itemBindings map[string]map[string]string
	current      *canvasItem // item under the pointer

	// damage lists disjoint window areas changed since the last redraw,
	// already clipped to the area inside the border; fullDamage asks
	// for the whole window instead.
	damage     []rect
	fullDamage bool
	// drawnW×drawnH is the window size at the last full redraw; a
	// different size means the window was resized and needs one.
	drawnW, drawnH int
	// scratch is the drawnW×drawnH pixmap partial redraws paint into,
	// created on the first one (0 until then). scratchRefused records
	// that the server refused it at this size (the pixmap-bytes quota);
	// the canvas asks again only after a resize.
	scratch        xproto.ID
	scratchRefused bool
	pts            []xproto.Point // reused point buffer
	rects          []xproto.Rect  // reused fill-rectangle buffer
	hits           []*canvasItem  // reused list of items to repaint
}

// rect is a half-open pixel rectangle [x0,x1)×[y0,y1).
type rect struct{ x0, y0, x1, y1 int }

func (r rect) empty() bool { return r.x0 >= r.x1 || r.y0 >= r.y1 }

func (r rect) overlaps(o rect) bool {
	return r.x0 < o.x1 && o.x0 < r.x1 && r.y0 < o.y1 && o.y0 < r.y1
}

func (r rect) union(o rect) rect {
	return rect{min(r.x0, o.x0), min(r.y0, o.y0), max(r.x1, o.x1), max(r.y1, o.y1)}
}

func (r rect) intersect(o rect) rect {
	return rect{max(r.x0, o.x0), max(r.y0, o.y0), min(r.x1, o.x1), min(r.y1, o.y1)}
}

type canvasItem struct {
	id     int
	kind   string // "line", "rectangle", "oval", "polygon", "text"
	coords []int  // pairs
	fill   string
	width  int // line width
	text   string
	tags   []string
}

func canvasSpecs() []tk.OptionSpec {
	specs := standardSpecs("White")
	return append(specs,
		tk.OptionSpec{Name: "-width", DBName: "width", DBClass: "Width", Default: "200"},
		tk.OptionSpec{Name: "-height", DBName: "height", DBClass: "Height", Default: "150"},
	)
}

func registerCanvas(app *tk.App) {
	app.Interp.Register("canvas", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) < 2 {
			return "", fmt.Errorf(`wrong # args: should be "canvas pathName ?options?"`)
		}
		b, err := newBase(app, args[1], "Canvas", canvasSpecs(), false)
		if err != nil {
			return "", err
		}
		c := &Canvas{base: *b, itemBindings: make(map[string]map[string]string)}
		c.win.Widget = c
		c.win.AddEventHandler(xproto.ExposureMask, func(*xproto.Event) {
			c.damageAll()
		})
		c.bindBehaviour()
		return c.install(c, args[2:])
	})
}

// tagSpec is a tagOrId argument resolved once per subcommand: an
// integer item id, "all", or a tag name.
type tagSpec struct {
	tag  string
	id   int
	isID bool
}

func parseTagSpec(spec string) tagSpec {
	if n, err := strconv.Atoi(spec); err == nil {
		return tagSpec{id: n, isID: true}
	}
	return tagSpec{tag: spec}
}

// matches reports whether the item carries the tag or id.
func (s tagSpec) matches(it *canvasItem) bool {
	if s.isID {
		return it.id == s.id
	}
	if s.tag == "all" {
		return true
	}
	for _, t := range it.tags {
		if t == s.tag {
			return true
		}
	}
	return false
}

// bbox returns the item's bounding box.
func (it *canvasItem) bbox() (x0, y0, x1, y1 int) {
	if len(it.coords) < 2 {
		return 0, 0, 0, 0
	}
	x0, y0 = it.coords[0], it.coords[1]
	x1, y1 = x0, y0
	for i := 0; i+1 < len(it.coords); i += 2 {
		x0 = min(x0, it.coords[i])
		x1 = max(x1, it.coords[i])
		y0 = min(y0, it.coords[i+1])
		y1 = max(y1, it.coords[i+1])
	}
	return
}

// contains reports whether the point is on (or in) the item; text items
// use their rendered extent.
func (c *Canvas) contains(it *canvasItem, x, y int) bool {
	x0, y0, x1, y1 := it.bbox()
	switch it.kind {
	case "text":
		x1 = x0 + c.font.TextWidth(it.text)
		y1 = y0 + c.font.LineHeight()
	case "line":
		// Fatten thin lines for picking.
		pad := max(it.width, 3)
		x0, y0, x1, y1 = x0-pad, y0-pad, x1+pad, y1+pad
	}
	return x >= x0 && y >= y0 && x <= x1 && y <= y1
}

// itemAt returns the topmost item containing (x, y), or nil.
func (c *Canvas) itemAt(x, y int) *canvasItem {
	for i := len(c.items) - 1; i >= 0; i-- {
		if c.contains(c.items[i], x, y) {
			return c.items[i]
		}
	}
	return nil
}

// bindBehaviour delivers pointer events to per-item bindings.
func (c *Canvas) bindBehaviour() {
	mask := xproto.ButtonPressMask | xproto.ButtonReleaseMask |
		xproto.PointerMotionMask | xproto.LeaveWindowMask
	c.win.AddEventHandler(mask, func(ev *xproto.Event) {
		switch int(ev.Type) {
		case xproto.MotionNotify:
			it := c.itemAt(int(ev.X), int(ev.Y))
			if it != c.current {
				if c.current != nil {
					c.fireItemBinding(c.current, "<Leave>", ev)
				}
				c.current = it
				if it != nil {
					c.fireItemBinding(it, "<Enter>", ev)
				}
			}
		case xproto.LeaveNotify:
			if c.current != nil {
				c.fireItemBinding(c.current, "<Leave>", ev)
				c.current = nil
			}
		case xproto.ButtonPress:
			if it := c.itemAt(int(ev.X), int(ev.Y)); it != nil {
				c.fireItemBinding(it, fmt.Sprintf("<Button-%d>", ev.Detail), ev)
			}
		case xproto.ButtonRelease:
			if it := c.itemAt(int(ev.X), int(ev.Y)); it != nil {
				c.fireItemBinding(it, fmt.Sprintf("<ButtonRelease-%d>", ev.Detail), ev)
			}
		}
	})
}

// fireItemBinding runs the script bound to the event for any tag the item
// carries (or its id), with %x/%y substitution.
func (c *Canvas) fireItemBinding(it *canvasItem, spec string, ev *xproto.Event) {
	specs := append([]string{strconv.Itoa(it.id)}, it.tags...)
	for _, tag := range specs {
		if script, ok := c.itemBindings[tag][spec]; ok {
			script = strings.ReplaceAll(script, "%x", strconv.Itoa(int(ev.X)))
			script = strings.ReplaceAll(script, "%y", strconv.Itoa(int(ev.Y)))
			c.eval(fmt.Sprintf("canvas binding %s on %s", spec, c.win.Path), script)
			return
		}
	}
}

// parseCoords reads an even number of integer coordinates.
func parseCoords(args []string) ([]int, error) {
	if len(args) == 0 || len(args)%2 != 0 {
		return nil, fmt.Errorf("canvas coordinates must come in x y pairs")
	}
	out := make([]int, len(args))
	for i, a := range args {
		n, err := strconv.Atoi(a)
		if err != nil {
			return nil, fmt.Errorf("bad coordinate %q", a)
		}
		out[i] = n
	}
	return out, nil
}

// recompute implements subcommander.
func (c *Canvas) recompute() error {
	if err := c.resolve(); err != nil {
		return err
	}
	c.win.GeometryRequest(c.cv.GetInt("-width", 200), c.cv.GetInt("-height", 150))
	c.damageAll()
	return nil
}

// widgetCommand implements subcommander.
func (c *Canvas) widgetCommand(sub string, args []string) (string, error) {
	switch sub {
	case "create":
		return c.cmdCreate(args)
	case "delete":
		if len(args) != 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s delete tagOrId"`, c.win.Path)
		}
		spec := parseTagSpec(args[0])
		kept := c.items[:0]
		for _, it := range c.items {
			if !spec.matches(it) {
				kept = append(kept, it)
				continue
			}
			c.damageItem(it)
			if c.current == it {
				c.current = nil
			}
		}
		c.items = kept
		return "", nil
	case "move":
		if len(args) != 3 {
			return "", fmt.Errorf(`wrong # args: should be "%s move tagOrId dx dy"`, c.win.Path)
		}
		dx, err1 := strconv.Atoi(args[1])
		dy, err2 := strconv.Atoi(args[2])
		if err1 != nil || err2 != nil {
			return "", fmt.Errorf("expected integer offsets")
		}
		spec := parseTagSpec(args[0])
		for _, it := range c.items {
			if spec.matches(it) {
				c.damageItem(it)
				for i := 0; i+1 < len(it.coords); i += 2 {
					it.coords[i] += dx
					it.coords[i+1] += dy
				}
				c.damageItem(it)
			}
		}
		return "", nil
	case "coords":
		if len(args) < 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s coords tagOrId ?x y ...?"`, c.win.Path)
		}
		spec := parseTagSpec(args[0])
		for _, it := range c.items {
			if spec.matches(it) {
				if len(args) > 1 {
					coords, err := parseCoords(args[1:])
					if err != nil {
						return "", err
					}
					c.damageItem(it)
					it.coords = coords
					c.damageItem(it)
					return "", nil
				}
				out := make([]string, len(it.coords))
				for i, v := range it.coords {
					out[i] = strconv.Itoa(v)
				}
				return strings.Join(out, " "), nil
			}
		}
		return "", nil
	case "itemconfigure":
		if len(args) < 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s itemconfigure tagOrId ?option value ...?"`, c.win.Path)
		}
		opts := args[1:]
		if len(opts)%2 != 0 {
			return "", fmt.Errorf("value for %q missing", opts[len(opts)-1])
		}
		spec := parseTagSpec(args[0])
		for _, it := range c.items {
			if !spec.matches(it) {
				continue
			}
			c.damageItem(it)
			for i := 0; i < len(opts); i += 2 {
				if err := c.applyItemOption(it, opts[i], opts[i+1]); err != nil {
					c.damageItem(it)
					return "", err
				}
			}
			c.damageItem(it)
		}
		return "", nil
	case "bind":
		if len(args) < 2 || len(args) > 3 {
			return "", fmt.Errorf(`wrong # args: should be "%s bind tagOrId event ?script?"`, c.win.Path)
		}
		tag, event := args[0], args[1]
		if len(args) == 2 {
			return c.itemBindings[tag][event], nil
		}
		if c.itemBindings[tag] == nil {
			c.itemBindings[tag] = make(map[string]string)
		}
		if args[2] == "" {
			delete(c.itemBindings[tag], event)
		} else {
			c.itemBindings[tag][event] = args[2]
		}
		return "", nil
	case "find":
		if len(args) >= 1 && args[0] == "closest" {
			if len(args) != 3 {
				return "", fmt.Errorf(`wrong # args: should be "%s find closest x y"`, c.win.Path)
			}
			x, err1 := strconv.Atoi(args[1])
			y, err2 := strconv.Atoi(args[2])
			if err1 != nil || err2 != nil {
				return "", fmt.Errorf("expected integer coordinates")
			}
			best := -1
			bestDist := 1 << 30
			for _, it := range c.items {
				x0, y0, x1, y1 := it.bbox()
				cx, cy := (x0+x1)/2, (y0+y1)/2
				d := (cx-x)*(cx-x) + (cy-y)*(cy-y)
				if d < bestDist {
					bestDist = d
					best = it.id
				}
			}
			if best < 0 {
				return "", nil
			}
			return strconv.Itoa(best), nil
		}
		if len(args) >= 1 && args[0] == "withtag" && len(args) == 2 {
			spec := parseTagSpec(args[1])
			var ids []int
			for _, it := range c.items {
				if spec.matches(it) {
					ids = append(ids, it.id)
				}
			}
			sort.Ints(ids)
			out := make([]string, len(ids))
			for i, id := range ids {
				out[i] = strconv.Itoa(id)
			}
			return strings.Join(out, " "), nil
		}
		return "", fmt.Errorf(`bad find option: should be "closest x y" or "withtag tag"`)
	case "gettags":
		if len(args) != 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s gettags tagOrId"`, c.win.Path)
		}
		spec := parseTagSpec(args[0])
		for _, it := range c.items {
			if spec.matches(it) {
				return tcl.FormatList(it.tags), nil
			}
		}
		return "", nil
	case "raise":
		if len(args) != 1 {
			return "", fmt.Errorf(`wrong # args: should be "%s raise tagOrId"`, c.win.Path)
		}
		spec := parseTagSpec(args[0])
		var lifted, rest []*canvasItem
		for _, it := range c.items {
			if spec.matches(it) {
				lifted = append(lifted, it)
				c.damageItem(it)
			} else {
				rest = append(rest, it)
			}
		}
		c.items = append(rest, lifted...)
		return "", nil
	}
	return "", fmt.Errorf("bad option %q for canvas", sub)
}

// cmdCreate handles "create type x y ?x y ...? ?-option value ...?".
func (c *Canvas) cmdCreate(args []string) (string, error) {
	if len(args) < 1 {
		return "", fmt.Errorf(`wrong # args: should be "%s create type coords ?options?"`, c.win.Path)
	}
	kind := args[0]
	switch kind {
	case "line", "rectangle", "oval", "polygon", "text":
	default:
		return "", fmt.Errorf("unknown canvas item type %q", kind)
	}
	// Coordinates run until the first -option.
	i := 1
	for i < len(args) && !strings.HasPrefix(args[i], "-") {
		i++
	}
	coords, err := parseCoords(args[1:i])
	if err != nil {
		return "", err
	}
	switch kind {
	case "rectangle", "oval":
		if len(coords) != 4 {
			return "", fmt.Errorf("%s items need exactly 4 coordinates", kind)
		}
	case "text":
		if len(coords) != 2 {
			return "", fmt.Errorf("text items need exactly 2 coordinates")
		}
	case "polygon":
		if len(coords) < 6 {
			return "", fmt.Errorf("polygons need at least 3 points")
		}
	}
	c.nextID++
	it := &canvasItem{id: c.nextID, kind: kind, coords: coords, fill: "black", width: 1}
	opts := args[i:]
	if len(opts)%2 != 0 {
		return "", fmt.Errorf("value for %q missing", opts[len(opts)-1])
	}
	for j := 0; j < len(opts); j += 2 {
		if err := c.applyItemOption(it, opts[j], opts[j+1]); err != nil {
			return "", err
		}
	}
	c.items = append(c.items, it)
	c.damageItem(it)
	return strconv.Itoa(it.id), nil
}

func (c *Canvas) applyItemOption(it *canvasItem, name, value string) error {
	switch name {
	case "-fill":
		if _, err := c.app.Color(value); err != nil {
			return err
		}
		it.fill = value
	case "-width":
		n, err := strconv.Atoi(value)
		if err != nil || n < 1 {
			return fmt.Errorf("bad width %q", value)
		}
		it.width = n
	case "-text":
		it.text = value
	case "-tags":
		tags, err := tcl.ParseList(value)
		if err != nil {
			return err
		}
		it.tags = tags
	default:
		return fmt.Errorf("unknown item option %q", name)
	}
	return nil
}

// damageAll asks the next redraw to repaint the whole window.
func (c *Canvas) damageAll() {
	c.fullDamage = true
	c.damage = c.damage[:0]
	c.win.ScheduleRedraw()
}

// damageItem adds the item's current extent, clipped to the area inside
// the border, to the damage list. Overlapping rectangles merge, so the
// list stays disjoint and a small move damages one rectangle, not two.
func (c *Canvas) damageItem(it *canvasItem) {
	if c.fullDamage {
		return
	}
	r := c.extent(it).intersect(c.inner())
	if r.empty() {
		return
	}
	for i := 0; i < len(c.damage); {
		if !c.damage[i].overlaps(r) {
			i++
			continue
		}
		r = r.union(c.damage[i])
		last := len(c.damage) - 1
		c.damage[i] = c.damage[last]
		c.damage = c.damage[:last]
		i = 0 // the union may now overlap rectangles already passed
	}
	// Each rectangle costs one CopyArea: once the copies and the fill
	// alone cost what a full redraw does, no partial redraw can win.
	if 1+len(c.damage)+1 >= c.fullRequests() {
		c.damageAll()
		return
	}
	c.damage = append(c.damage, r)
	c.win.ScheduleRedraw()
}

// fullRequests is what a full redraw sends: one background fill, one
// request per item and four per pixel of drawn border. A partial redraw
// sends one fill, one request per item it repaints and one CopyArea per
// damage rectangle, and runs only when that is fewer.
func (c *Canvas) fullRequests() int {
	return 1 + len(c.items) + 4*c.borderWidth()
}

// borderWidth is the width of the 3-D border drawn around the items: 0
// when the relief is flat.
func (c *Canvas) borderWidth() int {
	bd := c.cv.GetInt("-borderwidth", 2)
	if bd < 0 || c.cv.Get("-relief") == "flat" {
		return 0
	}
	return bd
}

// inner is the window area items show in: inside the 3-D border when
// one is drawn, the whole window otherwise.
func (c *Canvas) inner() rect {
	bd := c.borderWidth()
	return rect{bd, bd, c.win.Width - bd, c.win.Height - bd}
}

// points returns the vertices the server gets for a line, polygon or
// oval (a 24-point polygon around the ellipse), in a reused buffer.
func (c *Canvas) points(it *canvasItem) []xproto.Point {
	pts := c.pts[:0]
	if it.kind == "oval" {
		x0, y0, x1, y1 := it.bbox()
		cx, cy := (x0+x1)/2, (y0+y1)/2
		rx, ry := (x1-x0)/2, (y1-y0)/2
		for k := range cosTable {
			pts = append(pts, xproto.Point{
				X: int16(cx + int(float64(rx)*cosTable[k])),
				Y: int16(cy + int(float64(ry)*sinTable[k])),
			})
		}
	} else {
		for i := 0; i+1 < len(it.coords); i += 2 {
			pts = append(pts, xproto.Point{X: int16(it.coords[i]), Y: int16(it.coords[i+1])})
		}
	}
	c.pts = pts
	return pts
}

// extent returns a conservative bound of the pixels drawing the item
// touches, computed from the same 16-bit values the requests carry:
// lines are padded by their width, text spans the font's ascent and
// descent and one glyph cell per byte, and filled shapes cover their
// vertices' bounding box.
func (c *Canvas) extent(it *canvasItem) rect {
	switch it.kind {
	case "rectangle":
		x0, y0, x1, y1 := it.bbox()
		x, y := int(int16(x0)), int(int16(y0))
		return rect{x, y, x + int(uint16(x1-x0)), y + int(uint16(y1-y0))}
	case "text":
		x, y := int(int16(it.coords[0])), int(int16(it.coords[1]+c.font.Ascent))
		// The server draws every byte as one glyph cell, and '?' for a
		// byte it has no glyph for, which TextWidth may count narrower.
		w := max(c.font.TextWidth(it.text), len(it.text)*c.font.TextWidth("M"))
		return rect{x, y - c.font.Ascent, x + w, y + c.font.Descent}
	}
	pts := c.points(it)
	if len(pts) == 0 {
		return rect{}
	}
	r := rect{int(pts[0].X), int(pts[0].Y), int(pts[0].X) + 1, int(pts[0].Y) + 1}
	for _, p := range pts[1:] {
		r = r.union(rect{int(p.X), int(p.Y), int(p.X) + 1, int(p.Y) + 1})
	}
	if it.kind == "line" {
		r = rect{r.x0 - it.width, r.y0 - it.width, r.x1 + it.width, r.y1 + it.width}
	}
	return r
}

// Redraw implements tk.Widget. Full damage, a size change since the
// last full redraw, or damage whose repaint would send as many requests
// as a full redraw (fullRequests) repaints the whole window and its
// border in place; otherwise the damage list is repainted in the
// scratch pixmap and each rectangle copied to the window. Pixels
// outside the rectangles are never copied, so the scratch pixmap's
// stale contents there never show.
func (c *Canvas) Redraw() {
	if c.win.Destroyed {
		return
	}
	w, h := c.win.Width, c.win.Height
	partial := !c.fullDamage && len(c.damage) > 0 && w == c.drawnW && h == c.drawnH
	if partial {
		c.hits = c.hits[:0]
		for _, it := range c.items {
			if c.meetsDamage(it) {
				c.hits = append(c.hits, it)
			}
		}
		partial = 1+len(c.hits)+len(c.damage) < c.fullRequests()
	}
	if partial && c.scratch == 0 {
		partial = !c.scratchRefused && c.createScratch()
	}
	if partial {
		d := c.app.Disp
		c.drawItems(c.scratch, c.damage, c.hits)
		gc := c.app.GC(c.bg, c.bg, 1, c.fontID())
		for _, r := range c.damage {
			d.CopyArea(c.scratch, c.win.XID, gc, r.x0, r.y0, r.x0, r.y0, r.x1-r.x0, r.y1-r.y0)
		}
	} else {
		if w != c.drawnW || h != c.drawnH {
			c.freeScratch()
			c.scratchRefused = false
			c.drawnW, c.drawnH = w, h
		}
		c.drawItems(c.win.XID, []rect{{0, 0, w, h}}, c.items)
		c.draw3DBorder(0, 0, w, h, c.cv.GetInt("-borderwidth", 2), c.bg, c.cv.Get("-relief"))
	}
	c.fullDamage = false
	c.damage = c.damage[:0]
	clear(c.hits) // drop references to deleted items
}

// meetsDamage reports whether the item's extent meets a damage
// rectangle.
func (c *Canvas) meetsDamage(it *canvasItem) bool {
	ext := c.extent(it)
	for _, r := range c.damage {
		if r.overlaps(ext) {
			return true
		}
	}
	return false
}

// createScratch creates the drawnW×drawnH scratch pixmap, confirming it
// with one round trip. A session over its pixmap-bytes quota is refused
// one (docs/farm.md) and gets one X error for it; the canvas then
// repaints the whole window in place until a resize, when it asks again.
func (c *Canvas) createScratch() bool {
	d := c.app.Disp
	pix := d.CreatePixmap(c.drawnW, c.drawnH)
	if _, err := d.GetGeometry(pix); err != nil {
		c.scratchRefused = true
		return false
	}
	c.scratch = pix
	return true
}

// drawItems paints the damage rectangles of dst: one background fill,
// then the given items in order. Given every item, in stacking order,
// whose extent meets a rectangle, each rectangle's pixels end up
// exactly as a full redraw leaves them.
func (c *Canvas) drawItems(dst xproto.ID, damage []rect, items []*canvasItem) {
	d := c.app.Disp
	c.rects = c.rects[:0]
	for _, r := range damage {
		c.rects = append(c.rects, xproto.Rect{X: int16(r.x0), Y: int16(r.y0), W: uint16(r.x1 - r.x0), H: uint16(r.y1 - r.y0)})
	}
	d.FillRectangles(dst, c.app.GC(c.bg, c.bg, 1, c.fontID()), c.rects)
	for _, it := range items {
		px, err := c.app.Color(it.fill)
		if err != nil {
			px = 0
		}
		gc := c.app.GC(px, c.bg, it.width, c.fontID())
		switch it.kind {
		case "line":
			d.DrawLines(dst, gc, c.points(it))
		case "rectangle":
			x0, y0, x1, y1 := it.bbox()
			d.FillRectangle(dst, gc, x0, y0, x1-x0, y1-y0)
		case "oval", "polygon":
			d.FillPolygon(dst, gc, c.points(it))
		case "text":
			d.DrawString(dst, gc, it.coords[0], it.coords[1]+c.font.Ascent, it.text)
		}
	}
}

// freeScratch releases the scratch pixmap, if any.
func (c *Canvas) freeScratch() {
	if c.scratch != 0 {
		c.app.Disp.FreePixmap(c.scratch)
		c.scratch = 0
	}
}

// Destroyed implements tk.Widget.
func (c *Canvas) Destroyed() {
	c.freeScratch()
	c.base.Destroyed()
}

// cosTable/sinTable hold 24 points around the unit circle (avoiding a
// math import for one approximation).
var cosTable, sinTable = func() ([24]float64, [24]float64) {
	var ct, st [24]float64
	// Values computed once via the Taylor-free identity: rotate a unit
	// vector by 15° steps.
	const c15, s15 = 0.9659258262890683, 0.25881904510252074
	x, y := 1.0, 0.0
	for i := 0; i < 24; i++ {
		ct[i], st[i] = x, y
		x, y = x*c15-y*s15, x*s15+y*c15
	}
	return ct, st
}()
