// Package cfg lowers Go function bodies into basic-block control-flow
// graphs for the lifecycle suite (internal/lint/life), whose mustclose
// analyzer runs path-sensitive must-release dataflow over the blocks and
// edges.
//
// Every function body becomes a list of basic blocks holding only
// straight-line statements (assignments, declarations, expression
// statements, inc/dec, go/defer); control flow — if, for, range, switch,
// select, return, break/continue/goto — becomes edges. A consumer never
// sees a control statement; it executes block bodies and applies edge
// refinements. Goroutine bodies contribute no edges (a `go` statement's
// call is checked where it appears, but its execution is not sequenced
// into the CFG).
package cfg

import (
	"go/ast"
	"go/token"
)

// EdgeKind distinguishes how an edge constrains the target state.
type EdgeKind int

const (
	Plain     EdgeKind = iota
	CondTrue           // taken when cond is true: refine with cond
	CondFalse          // taken when cond is false: refine with ¬cond
)

// Edge is one CFG arc with its refinement payload.
type Edge struct {
	To   *Block
	Kind EdgeKind
	Cond ast.Expr // CondTrue / CondFalse
}

// Block is one basic block.
type Block struct {
	ID    int
	Stmts []ast.Stmt
	// Ret, when non-nil, terminates the function through this block.
	Ret   *ast.ReturnStmt
	Succs []Edge
}

// Graph is one lowered function body.
type Graph struct {
	Blocks []*Block
	Entry  *Block
}

// loopFrame tracks the jump targets of one enclosing loop or switch.
type loopFrame struct {
	label          string
	breakTarget    *Block
	continueTarget *Block // nil for switch/select frames
}

type builder struct {
	blocks []*Block
	frames []loopFrame
	// labels maps label names to started blocks for goto resolution.
	labels map[string]*Block
	// gotos records unresolved goto edges (source block, label).
	gotos []pendingGoto
	// pendingLabel is attached to the next loop/switch frame pushed.
	pendingLabel string
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *builder) newBlock() *Block {
	bl := &Block{ID: len(b.blocks)}
	b.blocks = append(b.blocks, bl)
	return bl
}

func (b *builder) link(from, to *Block, e Edge) {
	e.To = to
	from.Succs = append(from.Succs, e)
}

// Build lowers the body of a function (or function literal).
func Build(body *ast.BlockStmt) *Graph {
	b := &builder{labels: map[string]*Block{}}
	entry := b.newBlock()
	last := b.stmtList(body.List, entry)
	_ = last // falling off the end returns with zero results; no edge needed
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			b.link(g.from, target, Edge{})
		}
	}
	return &Graph{Blocks: b.blocks, Entry: entry}
}

// stmtList lowers a statement sequence starting in cur, returning the
// block where control continues (nil when the sequence cannot fall
// through).
func (b *builder) stmtList(list []ast.Stmt, cur *Block) *Block {
	for _, s := range list {
		if cur == nil {
			// Unreachable statements after return/break; lower them into a
			// fresh block with no predecessors so consumers record them as
			// dead rather than silently skipping.
			cur = b.newBlock()
		}
		cur = b.stmt(s, cur)
	}
	return cur
}

func (b *builder) stmt(s ast.Stmt, cur *Block) *Block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(s.List, cur)

	case *ast.IfStmt:
		if s.Init != nil {
			cur.Stmts = append(cur.Stmts, s.Init)
		}
		thenB := b.newBlock()
		b.link(cur, thenB, Edge{Kind: CondTrue, Cond: s.Cond})
		thenEnd := b.stmtList(s.Body.List, thenB)
		join := b.newBlock()
		if s.Else != nil {
			elseB := b.newBlock()
			b.link(cur, elseB, Edge{Kind: CondFalse, Cond: s.Cond})
			if elseEnd := b.stmt(s.Else, elseB); elseEnd != nil {
				b.link(elseEnd, join, Edge{})
			}
		} else {
			b.link(cur, join, Edge{Kind: CondFalse, Cond: s.Cond})
		}
		if thenEnd != nil {
			b.link(thenEnd, join, Edge{})
		}
		return join

	case *ast.ForStmt:
		if s.Init != nil {
			cur.Stmts = append(cur.Stmts, s.Init)
		}
		head := b.newBlock()
		b.link(cur, head, Edge{})
		exit := b.newBlock()
		body := b.newBlock()
		post := b.newBlock()
		if s.Cond != nil {
			b.link(head, body, Edge{Kind: CondTrue, Cond: s.Cond})
			b.link(head, exit, Edge{Kind: CondFalse, Cond: s.Cond})
		} else {
			b.link(head, body, Edge{})
		}
		b.pushFrame(exit, post)
		bodyEnd := b.stmtList(s.Body.List, body)
		b.popFrame()
		if bodyEnd != nil {
			b.link(bodyEnd, post, Edge{})
		}
		if s.Post != nil {
			post.Stmts = append(post.Stmts, s.Post)
		}
		b.link(post, head, Edge{})
		return exit

	case *ast.RangeStmt:
		// Evaluate the range container once on entry so consumers see it.
		cur.Stmts = append(cur.Stmts, &ast.ExprStmt{X: s.X})
		head := b.newBlock()
		b.link(cur, head, Edge{})
		exit := b.newBlock()
		body := b.newBlock()
		b.link(head, body, Edge{})
		b.link(head, exit, Edge{})
		b.pushFrame(exit, head)
		if bodyEnd := b.stmtList(s.Body.List, body); bodyEnd != nil {
			b.link(bodyEnd, head, Edge{})
		}
		b.popFrame()
		return exit

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur.Stmts = append(cur.Stmts, s.Init)
		}
		if s.Tag != nil {
			cur.Stmts = append(cur.Stmts, &ast.ExprStmt{X: s.Tag})
		}
		exit := b.newBlock()
		b.pushSwitchFrame(exit)
		var caseBodies []*Block
		var hasDefault bool
		for range s.Body.List {
			caseBodies = append(caseBodies, b.newBlock())
		}
		// A tagless switch is an if/else-if chain: each case's dispatch
		// block carries the accumulated negations of the cases before it,
		// so the bodies after `case err != nil:` see err == nil.
		defaultIdx := -1
		dispatch := cur
		for i, cc := range s.Body.List {
			cc := cc.(*ast.CaseClause)
			switch {
			case cc.List == nil:
				hasDefault = true
				defaultIdx = i
				if s.Tag != nil {
					b.link(cur, caseBodies[i], Edge{})
				}
			case s.Tag != nil:
				b.link(cur, caseBodies[i], Edge{})
			case len(cc.List) == 1:
				dispatch.Stmts = append(dispatch.Stmts, &ast.ExprStmt{X: cc.List[0]})
				next := b.newBlock()
				b.link(dispatch, caseBodies[i], Edge{Kind: CondTrue, Cond: cc.List[0]})
				b.link(dispatch, next, Edge{Kind: CondFalse, Cond: cc.List[0]})
				dispatch = next
			default:
				// Multiple boolean expressions in one case: their
				// disjunction (and its negation) is not tracked.
				for _, v := range cc.List {
					dispatch.Stmts = append(dispatch.Stmts, &ast.ExprStmt{X: v})
				}
				next := b.newBlock()
				b.link(dispatch, caseBodies[i], Edge{})
				b.link(dispatch, next, Edge{})
				dispatch = next
			}
			end := b.stmtListFallthrough(cc.Body, caseBodies[i], caseBodies, i)
			if end != nil {
				b.link(end, exit, Edge{})
			}
		}
		b.popFrame()
		if s.Tag == nil {
			// End of the chain: every case condition was false.
			if defaultIdx >= 0 {
				b.link(dispatch, caseBodies[defaultIdx], Edge{})
			} else {
				b.link(dispatch, exit, Edge{})
			}
		} else if !hasDefault {
			b.link(cur, exit, Edge{})
		}
		return exit

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur.Stmts = append(cur.Stmts, s.Init)
		}
		exit := b.newBlock()
		b.pushSwitchFrame(exit)
		hasDefault := false
		for _, cc := range s.Body.List {
			cc := cc.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			body := b.newBlock()
			b.link(cur, body, Edge{})
			if end := b.stmtList(cc.Body, body); end != nil {
				b.link(end, exit, Edge{})
			}
		}
		b.popFrame()
		if !hasDefault {
			b.link(cur, exit, Edge{})
		}
		return exit

	case *ast.SelectStmt:
		exit := b.newBlock()
		b.pushSwitchFrame(exit)
		for _, cc := range s.Body.List {
			cc := cc.(*ast.CommClause)
			body := b.newBlock()
			b.link(cur, body, Edge{})
			if cc.Comm != nil {
				body.Stmts = append(body.Stmts, cc.Comm)
			}
			if end := b.stmtList(cc.Body, body); end != nil {
				b.link(end, exit, Edge{})
			}
		}
		b.popFrame()
		return exit

	case *ast.ReturnStmt:
		cur.Ret = s
		return nil

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t := b.findBreak(label); t != nil {
				b.link(cur, t, Edge{})
			}
			return nil
		case token.CONTINUE:
			if t := b.findContinue(label); t != nil {
				b.link(cur, t, Edge{})
			}
			return nil
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{from: cur, label: label})
			return nil
		case token.FALLTHROUGH:
			// Handled by stmtListFallthrough; reaching here means a
			// fallthrough outside a switch body list — drop it.
			return nil
		}
		return cur

	case *ast.LabeledStmt:
		target := b.newBlock()
		b.link(cur, target, Edge{})
		b.labels[s.Label.Name] = target
		b.pendingLabel = s.Label.Name
		out := b.stmt(s.Stmt, target)
		b.pendingLabel = ""
		return out

	case *ast.EmptyStmt:
		return cur

	default:
		// Straight-line statement: assign, decl, inc/dec, expr, send,
		// go, defer.
		cur.Stmts = append(cur.Stmts, s)
		// A statement that provably never returns (panic, os.Exit) ends
		// the block with no fallthrough, so guards like
		// `if n == 0 { panic(...) }` refine the code below them.
		if es, ok := s.(*ast.ExprStmt); ok && IsNoReturnCall(es.X) {
			return nil
		}
		return cur
	}
}

// stmtListFallthrough lowers a case body, wiring a trailing fallthrough to
// the next case's body block.
func (b *builder) stmtListFallthrough(list []ast.Stmt, cur *Block, bodies []*Block, i int) *Block {
	if n := len(list); n > 0 {
		if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
			end := b.stmtList(list[:n-1], cur)
			if end != nil && i+1 < len(bodies) {
				b.link(end, bodies[i+1], Edge{})
			}
			return nil
		}
	}
	return b.stmtList(list, cur)
}

// IsNoReturnCall recognizes calls that terminate the goroutine: panic and
// os.Exit. (log.Fatal would qualify too; the repo's lint rules forbid it
// in pipeline code.)
func IsNoReturnCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			switch id.Name {
			case "os":
				return fun.Sel.Name == "Exit"
			case "log":
				switch fun.Sel.Name {
				case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
					return true
				}
			}
		}
	}
	return false
}

func (b *builder) pushFrame(breakT, contT *Block) {
	b.frames = append(b.frames, loopFrame{label: b.pendingLabel, breakTarget: breakT, continueTarget: contT})
	b.pendingLabel = ""
}

func (b *builder) pushSwitchFrame(breakT *Block) {
	b.frames = append(b.frames, loopFrame{label: b.pendingLabel, breakTarget: breakT})
	b.pendingLabel = ""
}

func (b *builder) popFrame() { b.frames = b.frames[:len(b.frames)-1] }

func (b *builder) findBreak(label string) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if label == "" || f.label == label {
			return f.breakTarget
		}
	}
	return nil
}

func (b *builder) findContinue(label string) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if f.continueTarget == nil {
			continue // switch/select frames are transparent to continue
		}
		if label == "" || f.label == label {
			return f.continueTarget
		}
	}
	return nil
}
