package vid

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"verro/internal/img"
)

// WriteY4M exports the video as YUV4MPEG2 (4:2:0), the raw interchange
// format every standard player and encoder consumes (`mpv out.y4m`,
// `ffmpeg -i out.y4m out.mp4`). Dimensions are rounded down to even.
func WriteY4M(w io.Writer, v *Video) error {
	if v.Len() == 0 {
		return errors.New("vid: empty video")
	}
	ww := v.W &^ 1
	hh := v.H &^ 1
	if ww == 0 || hh == 0 {
		return fmt.Errorf("vid: video %dx%d too small for 4:2:0", v.W, v.H)
	}
	fpsNum, fpsDen := fpsFraction(v.FPS)

	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "YUV4MPEG2 W%d H%d F%d:%d Ip A1:1 C420jpeg\n", ww, hh, fpsNum, fpsDen); err != nil {
		return err
	}
	ySize := ww * hh
	cSize := (ww / 2) * (hh / 2)
	buf := make([]byte, ySize+2*cSize)
	for _, f := range v.Frames {
		if _, err := bw.WriteString("FRAME\n"); err != nil {
			return err
		}
		frameToI420(f, ww, hh, buf)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveY4M writes the video to a .y4m file.
func SaveY4M(path string, v *Video) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteY4M(f, v); err != nil {
		return err
	}
	return f.Close()
}

// fpsFraction approximates an FPS value as a small integer fraction.
func fpsFraction(fps float64) (num, den int) {
	switch {
	case fps <= 0:
		return 25, 1
	case fps == float64(int(fps)):
		return int(fps), 1
	default:
		// Two decimal places cover the common 29.97/23.976 cases closely
		// enough for preview purposes.
		return int(fps*100 + 0.5), 100
	}
}

// frameToI420 converts an RGB frame (cropped to ww×hh) to planar I420 in
// buf, using BT.601 full-range coefficients.
func frameToI420(f *img.Image, ww, hh int, buf []byte) {
	ySize := ww * hh
	cw := ww / 2
	ch := hh / 2
	uOff := ySize
	vOff := ySize + cw*ch

	for y := 0; y < hh; y++ {
		for x := 0; x < ww; x++ {
			c := f.At(x, y)
			r, g, b := float64(c.R), float64(c.G), float64(c.B)
			buf[y*ww+x] = clamp8(0.299*r + 0.587*g + 0.114*b)
		}
	}
	for y := 0; y < ch; y++ {
		for x := 0; x < cw; x++ {
			// Average the 2×2 RGB block for chroma.
			var r, g, b float64
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					c := f.At(2*x+dx, 2*y+dy)
					r += float64(c.R)
					g += float64(c.G)
					b += float64(c.B)
				}
			}
			r /= 4
			g /= 4
			b /= 4
			buf[uOff+y*cw+x] = clamp8(-0.168736*r - 0.331264*g + 0.5*b + 128)
			buf[vOff+y*cw+x] = clamp8(0.5*r - 0.418688*g - 0.081312*b + 128)
		}
	}
}

func clamp8(v float64) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v + 0.5)
}
