package lang

import "fmt"

// PrintBuiltin is the name of the built-in output function. print(x)
// appends x to the program's observable output stream.
const PrintBuiltin = "print"

// MaxArrayWords bounds the total size, in words, of a program's
// arrays. The simulators allocate every array up front, so without a
// bound one declaration could exhaust a serving process's memory.
const MaxArrayWords = 1 << 20

// Check validates a parsed file: unique declarations, resolved names,
// argument counts, break/continue placement, and array bounds known
// at declaration and totalling at most MaxArrayWords. It returns the
// first error found.
func Check(f *File) error {
	arrays := map[string]*ArrayDecl{}
	var words int64
	for _, a := range f.Arrays {
		if _, dup := arrays[a.Name]; dup {
			return errf(a.Line, 1, "duplicate array %q", a.Name)
		}
		if a.Size <= 0 {
			return errf(a.Line, 1, "array %q has non-positive size %d", a.Name, a.Size)
		}
		if a.Size > MaxArrayWords-words {
			return errf(a.Line, 1, "array %q brings the program's arrays over %d words", a.Name, MaxArrayWords)
		}
		words += a.Size
		if int64(len(a.Init)) > a.Size {
			return errf(a.Line, 1, "array %q has %d initializers for size %d", a.Name, len(a.Init), a.Size)
		}
		arrays[a.Name] = a
	}
	funcs := map[string]*FuncDecl{}
	for _, fn := range f.Funcs {
		if _, dup := funcs[fn.Name]; dup {
			return errf(fn.Line, 1, "duplicate function %q", fn.Name)
		}
		if fn.Name == PrintBuiltin {
			return errf(fn.Line, 1, "cannot redefine builtin %q", PrintBuiltin)
		}
		if _, isArr := arrays[fn.Name]; isArr {
			return errf(fn.Line, 1, "%q declared as both array and function", fn.Name)
		}
		funcs[fn.Name] = fn
	}
	for _, fn := range f.Funcs {
		c := &checker{arrays: arrays, funcs: funcs, vars: map[string]bool{}}
		for _, p := range fn.Params {
			if c.vars[p] {
				return errf(fn.Line, 1, "duplicate parameter %q in %q", p, fn.Name)
			}
			c.vars[p] = true
		}
		if err := c.block(fn.Body, 0); err != nil {
			return fmt.Errorf("in func %s: %w", fn.Name, err)
		}
	}
	return nil
}

type checker struct {
	arrays map[string]*ArrayDecl
	funcs  map[string]*FuncDecl
	vars   map[string]bool
}

func (c *checker) block(b *BlockStmt, loopDepth int) error {
	for _, s := range b.Stmts {
		if err := c.stmt(s, loopDepth); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) stmt(s Stmt, loopDepth int) error {
	switch s := s.(type) {
	case *BlockStmt:
		return c.block(s, loopDepth)
	case *VarStmt:
		if s.Init != nil {
			if err := c.expr(s.Init); err != nil {
				return err
			}
		}
		if c.vars[s.Name] {
			return errf(s.Line, 1, "redeclaration of %q", s.Name)
		}
		if _, isArr := c.arrays[s.Name]; isArr {
			return errf(s.Line, 1, "%q shadows a global array", s.Name)
		}
		c.vars[s.Name] = true
		return nil
	case *AssignStmt:
		if s.Index != nil {
			if _, ok := c.arrays[s.Name]; !ok {
				return errf(s.Line, 1, "indexed assignment to non-array %q", s.Name)
			}
			if err := c.expr(s.Index); err != nil {
				return err
			}
		} else if !c.vars[s.Name] {
			return errf(s.Line, 1, "assignment to undeclared variable %q", s.Name)
		}
		return c.expr(s.Value)
	case *IfStmt:
		if err := c.expr(s.Cond); err != nil {
			return err
		}
		if err := c.block(s.Then, loopDepth); err != nil {
			return err
		}
		if s.Else != nil {
			return c.stmt(s.Else, loopDepth)
		}
		return nil
	case *WhileStmt:
		if err := c.expr(s.Cond); err != nil {
			return err
		}
		return c.block(s.Body, loopDepth+1)
	case *ForStmt:
		if s.Init != nil {
			if err := c.stmt(s.Init, loopDepth); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			if err := c.expr(s.Cond); err != nil {
				return err
			}
		}
		if s.Post != nil {
			if _, isVar := s.Post.(*VarStmt); isVar {
				return errf(s.Line, 1, "for post clause cannot declare a variable")
			}
			if err := c.stmt(s.Post, loopDepth); err != nil {
				return err
			}
		}
		return c.block(s.Body, loopDepth+1)
	case *BreakStmt:
		if loopDepth == 0 {
			return errf(s.Line, 1, "break outside loop")
		}
		return nil
	case *ContinueStmt:
		if loopDepth == 0 {
			return errf(s.Line, 1, "continue outside loop")
		}
		return nil
	case *ReturnStmt:
		if s.Value != nil {
			return c.expr(s.Value)
		}
		return nil
	case *ExprStmt:
		return c.expr(s.X)
	}
	return fmt.Errorf("lang: unknown statement %T", s)
}

func (c *checker) expr(e Expr) error {
	switch e := e.(type) {
	case *IntLit:
		return nil
	case *Ident:
		if !c.vars[e.Name] {
			if _, isArr := c.arrays[e.Name]; isArr {
				return errf(e.Line, 1, "array %q used without index", e.Name)
			}
			return errf(e.Line, 1, "undeclared variable %q", e.Name)
		}
		return nil
	case *IndexExpr:
		if _, ok := c.arrays[e.Name]; !ok {
			return errf(e.Line, 1, "index of non-array %q", e.Name)
		}
		return c.expr(e.Index)
	case *CallExpr:
		if e.Name == PrintBuiltin {
			if len(e.Args) != 1 {
				return errf(e.Line, 1, "print takes exactly 1 argument")
			}
		} else {
			fn, ok := c.funcs[e.Name]
			if !ok {
				return errf(e.Line, 1, "call of undeclared function %q", e.Name)
			}
			if len(e.Args) != len(fn.Params) {
				return errf(e.Line, 1, "call of %q with %d args, want %d", e.Name, len(e.Args), len(fn.Params))
			}
		}
		for _, a := range e.Args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		return nil
	case *UnaryExpr:
		return c.expr(e.X)
	case *BinaryExpr:
		if err := c.expr(e.X); err != nil {
			return err
		}
		return c.expr(e.Y)
	}
	return fmt.Errorf("lang: unknown expression %T", e)
}
