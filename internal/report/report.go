// Package report renders the experiment results into a single
// self-contained HTML page: the three paper tables, the Figure 5 sweeps,
// the aggregate-count summaries, the attack comparison, and the
// representative frames (PNGs inlined as data URIs so the file is
// portable).
package report

import (
	"encoding/base64"
	"fmt"
	"html/template"
	"io"
	"os"
	"path/filepath"
	"sort"

	"verro/internal/exp"
)

// Data collects everything the page shows; any section may be empty.
type Data struct {
	Title     string
	Table1    []exp.Table1Row
	Table2    []exp.Table2Row
	Table3    []exp.Table3Row
	Fig5      map[string][]exp.Fig5Point // per video
	Attacks   []*exp.AttackRow
	Baselines []*exp.BaselineResult
	// Frames maps a caption to a PNG file path, inlined at render time.
	Frames map[string]string
}

// frameImg is the template-facing inlined image.
type frameImg struct {
	Caption string
	DataURI template.URL
}

type fig5Section struct {
	Video  string
	Points []exp.Fig5Point
}

var page = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{{.Title}}</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 70rem; color: #222; }
h1 { border-bottom: 2px solid #444; padding-bottom: .3rem; }
h2 { margin-top: 2rem; }
table { border-collapse: collapse; margin: .8rem 0; }
th, td { border: 1px solid #bbb; padding: .25rem .6rem; text-align: right; }
th { background: #f0f0f0; }
td:first-child, th:first-child { text-align: left; }
img { max-width: 20rem; margin: .4rem; border: 1px solid #ccc; }
figure { display: inline-block; margin: .4rem; text-align: center; }
figcaption { font-size: .8rem; color: #555; }
</style></head><body>
<h1>{{.Title}}</h1>

{{if .Table1}}<h2>Table 1 — video characteristics</h2>
<table><tr><th>Video</th><th>Resolution</th><th>Frames</th><th>Objects</th><th>Camera</th></tr>
{{range .Table1}}<tr><td>{{.Video}}</td><td>{{.Resolution}}</td><td>{{.Frames}}</td><td>{{.Objects}}</td><td>{{.Camera}}</td></tr>{{end}}
</table>{{end}}

{{if .Table2}}<h2>Table 2 — distinct objects after key-frame extraction</h2>
<table><tr><th>Video</th><th>Frames</th><th>Objects</th><th>Key frames</th><th>Remaining</th></tr>
{{range .Table2}}<tr><td>{{.Video}}</td><td>{{.Frames}}</td><td>{{.Objects}}</td><td>{{.KeyFrames}}</td><td>{{.Remaining}}</td></tr>{{end}}
</table>{{end}}

{{if .Table3}}<h2>Table 3 — overheads</h2>
<table><tr><th>Video</th><th>Phase I (s)</th><th>Phase II (s)</th><th>Preprocess (s)</th><th>Bandwidth (MB)</th></tr>
{{range .Table3}}<tr><td>{{.Video}}</td><td>{{printf "%.3f" .Phase1.Seconds}}</td><td>{{printf "%.3f" .Phase2.Seconds}}</td><td>{{printf "%.3f" .Preprocess.Seconds}}</td><td>{{printf "%.2f" .BandwidthMB}}</td></tr>{{end}}
</table>{{end}}

{{range .Fig5Sections}}<h2>Figure 5 — {{.Video}}</h2>
<table><tr><th>f</th><th>original</th><th>opt</th><th>rr</th><th>dev before</th><th>dev after</th></tr>
{{range .Points}}<tr><td>{{printf "%.1f" .F}}</td><td>{{printf "%.0f" .Original}}</td><td>{{printf "%.0f" .Opt}}</td><td>{{printf "%.1f" .RR}}</td><td>{{printf "%.3f" .DevBefore}}</td><td>{{printf "%.3f" .DevAfter}}</td></tr>{{end}}
</table>{{end}}

{{if .Baselines}}<h2>Baseline — Algorithm 1 naive randomized response</h2>
<table><tr><th>Video</th><th>ε</th><th>true 1s</th><th>naive 1s</th><th>naive MAE</th><th>VERRO MAE</th></tr>
{{range .Baselines}}<tr><td>{{.Video}}</td><td>{{printf "%.1f" .Epsilon}}</td><td>{{printf "%.3f" .TrueOnesFrac}}</td><td>{{printf "%.3f" .NaiveOnesFrac}}</td><td>{{printf "%.2f" .NaiveCountMAE}}</td><td>{{printf "%.2f" .VerroCountMAE}}</td></tr>{{end}}
</table>{{end}}

{{if .Attacks}}<h2>Re-identification attack (top-1 success)</h2>
<table><tr><th>Video</th><th>Targets</th><th>Unsanitized</th><th>Blur</th><th>VERRO</th><th>Random</th></tr>
{{range .Attacks}}<tr><td>{{.Video}}</td><td>{{.Targets}}</td><td>{{printf "%.3f" .Identity}}</td><td>{{printf "%.3f" .Blur}}</td><td>{{printf "%.3f" .Verro}}</td><td>{{printf "%.3f" .Random}}</td></tr>{{end}}
</table>{{end}}

{{if .FrameImgs}}<h2>Representative frames (Figures 9-11)</h2>
{{range .FrameImgs}}<figure><img src="{{.DataURI}}" alt="{{.Caption}}"><figcaption>{{.Caption}}</figcaption></figure>{{end}}
{{end}}
</body></html>
`))

// templateData adapts Data for the template.
type templateData struct {
	Title        string
	Table1       []exp.Table1Row
	Table2       []exp.Table2Row
	Table3       []exp.Table3Row
	Fig5Sections []fig5Section
	Attacks      []*exp.AttackRow
	Baselines    []*exp.BaselineResult
	FrameImgs    []frameImg
}

// Render writes the HTML page.
func Render(w io.Writer, d *Data) error {
	td := templateData{
		Title:     d.Title,
		Table1:    d.Table1,
		Table2:    d.Table2,
		Table3:    d.Table3,
		Attacks:   d.Attacks,
		Baselines: d.Baselines,
	}
	if td.Title == "" {
		td.Title = "VERRO experiment report"
	}
	var videos []string
	for v := range d.Fig5 {
		videos = append(videos, v)
	}
	sort.Strings(videos)
	for _, v := range videos {
		td.Fig5Sections = append(td.Fig5Sections, fig5Section{Video: v, Points: d.Fig5[v]})
	}
	var captions []string
	for c := range d.Frames {
		captions = append(captions, c)
	}
	sort.Strings(captions)
	for _, c := range captions {
		uri, err := inlinePNG(d.Frames[c])
		if err != nil {
			return fmt.Errorf("report: frame %q: %w", c, err)
		}
		td.FrameImgs = append(td.FrameImgs, frameImg{Caption: c, DataURI: uri})
	}
	return page.Execute(w, td)
}

// Save renders the report to a file, creating parent directories.
func Save(path string, d *Data) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Render(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// inlinePNG reads a PNG file into a data URI.
func inlinePNG(path string) (template.URL, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return template.URL("data:image/png;base64," + base64.StdEncoding.EncodeToString(raw)), nil
}
