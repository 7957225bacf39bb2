package timing

// OperandsReady exposes the operand scan to the external test package,
// which can import the compiler and the program generator.
var OperandsReady = operandsReady
