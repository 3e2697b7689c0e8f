"""Turn source files, comments, neutral fact documents, and runtime traces
into entities and relation primitives: `cparser`, `comments`, `facts` and
`traces`.  Nothing is imported here, so a query that reads only the trace
copy loads only `traces`."""
