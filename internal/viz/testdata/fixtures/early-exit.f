C     MAIN/10 stops the program in its twentieth iteration: a plan that
C     runs every iteration and then the rest of MAIN prints what the
C     sequential program never reaches.
      PROGRAM MAIN
      COMMON /B/ X(100)
      INTEGER I
      DO 5 I = 1, 100
        X(I) = 0
5     CONTINUE
      DO 10 I = 1, 100
        IF (I .EQ. 20) THEN
          STOP
        ENDIF
        X(I) = I
10    CONTINUE
      WRITE(*,*) X(80)
      END
