/* a parse error on line 5 ahead of a lexical error on line 6: the
   parse error is reported (the parser lexes as it goes), exit 3 */
int main(void) { return 0; }

int x = ;
int y = 1 @ 2;
