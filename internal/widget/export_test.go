package widget

import "repro/internal/tk"

// DamageAll forces full damage on the canvas at path, so the next idle
// redraw repaints its whole window: the reference a damage-region
// redraw must match pixel for pixel.
func DamageAll(app *tk.App, path string) {
	w, err := app.NameToWindow(path)
	if err != nil {
		panic(err)
	}
	w.Widget.(*Canvas).damageAll()
}
